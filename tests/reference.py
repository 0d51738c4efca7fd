"""Library steps written out on their own, the references that the library's
faster forms are compared against.

``env_cycle`` is the environment cycle on a mutable machine, for the
frozen-state cycle (``vm.env_step``) and every table and tree built on it.
``best_vote_cycle`` is the best-vote round with one ``Claim`` per candidate,
each judged by ``validate_claim`` here, for the round on plain values
(``bestvote.best_vote_cycle``).  That ``validate_claim`` walks every positive
claim, with no bound U to spare a walk, so the library's verdicts without
one (``bestvote.claim_verdict``) are checked against the walk itself."""

from fractions import Fraction

from unimix.bestvote import SelectionRow, candidate_value, run_candidate_cycle
from unimix.core import Percept
from unimix.models import UndefinedConditionalError
from unimix.planner import env_node
from unimix.vm import run_cycle


def env_cycle(q, s, y, budget, alphabet):
    """One environment cycle of q on the machine s (run in place): reads the
    action, emits a percept.  Returns (percept, s, steps used, timed out);
    a timed-out cycle's percept is the zero one."""
    res = run_cycle(q, s, y, 0, budget, max_outputs=1)
    if res.timed_out:
        return Percept(Fraction(0), 0), s, res.steps_used, True
    return alphabet.percept_of(res.outputs[0]), s, res.steps_used, False


def validate_claim(c, claim, h, envs, budget, alphabet, m_k, horizon=None):
    """True iff some environment is consistent with h and the claim does not
    overrate the candidate's exact value; a claim of 0 needs no walk."""
    node = env_node(envs, h, budget, alphabet)
    if not node.survivors:
        return False
    if claim.w == 0:
        return True
    try:
        v = candidate_value(c, node, len(h) + 1, m_k, h, budget, alphabet, horizon)
    except UndefinedConditionalError:
        return False
    return claim.w <= v


def best_vote_cycle(candidates, h, envs, budget, alphabet, m_k, horizon=None):
    """One round of claims, validation, clamping, and selection: every
    candidate claims through ``run_candidate_cycle`` and every claim is
    judged by ``validate_claim`` above; the entries are sorted by
    ``sort_key`` and the first of the highest clamped claims wins.  Returns
    (action, rows)."""
    if not candidates:
        raise ValueError("no candidates")
    k = len(h) + 1
    node = env_node(envs, h, budget, alphabet)
    entries = []
    for c in candidates:
        claim = run_candidate_cycle(c, h, budget, alphabet)
        valid = validate_claim(c, claim, h, node, budget, alphabet, m_k, horizon)
        w_eff = claim.w if valid else Fraction(0)
        entries.append((c, claim, valid, w_eff))
    best = None
    for entry in sorted(entries, key=lambda e: e[0].sort_key):
        if best is None or entry[3] > best[3]:
            best = entry
    rows = [
        SelectionRow(k, c.label, claim.w, valid, c is best[0], claim.y, claim.steps_used)
        for c, claim, valid, _ in entries
    ]
    return best[1].y, rows
