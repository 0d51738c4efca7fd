"""The environment cycle on a mutable machine, written out on its own: the
reference that the library's frozen-state cycle (``vm.env_step``) and every
table and tree built on it are compared against."""

from fractions import Fraction

from unimix.core import Percept
from unimix.vm import run_cycle


def env_cycle(q, s, y, budget, alphabet):
    """One environment cycle of q on the machine s (run in place): reads the
    action, emits a percept.  Returns (percept, s, steps used, timed out);
    a timed-out cycle's percept is the zero one."""
    res = run_cycle(q, s, y, 0, budget, max_outputs=1)
    if res.timed_out:
        return Percept(Fraction(0), 0), s, res.steps_used, True
    return alphabet.percept_of(res.outputs[0]), s, res.steps_used, False
