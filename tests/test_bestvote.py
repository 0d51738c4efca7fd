from fractions import Fraction

import pytest

from unimix.bestvote import (
    Claim,
    ExtendedCandidate,
    best_vote_cycle,
    candidate_value,
    eff_intel_geq,
    make_composite,
    replay_candidate,
    run_best_vote,
    run_candidate_cycle,
    selection_log_csv,
    validate_claim,
    validated_claim_weight,
)
from unimix.core import EMPTY_HISTORY, History, Percept, append_cycle
from unimix.domains import make_heavenhell
from unimix.vm import decode

F = Fraction

END = (0, 0, 0)
OUT = (0, 0, 1)
LDC = lambda c: (1, 0, 0) + tuple((c >> i) & 1 for i in (1, 0))
JZ = lambda d: (1, 0, 1) + tuple((d >> i) & 1 for i in (1, 0))


def bits(*groups):
    out = ()
    for g in groups:
        out += g
    return out


SILENT = decode(END)                                  # claims (0, 0)
BRAGGART = decode(bits(LDC(1), OUT, OUT, END))        # claims (1, 1)
SPINNER = decode(bits(JZ(1), END))                    # loops forever on acc=0


def test_claim_rejects_negative_ratings():
    with pytest.raises(ValueError):
        Claim(F(-1, 2), 0)


def test_candidate_needs_exactly_one_implementation():
    with pytest.raises(ValueError):
        ExtendedCandidate("both", (0,), program=SILENT, oracle=lambda h: Claim(F(0), 0))
    with pytest.raises(ValueError):
        ExtendedCandidate("neither", (0,))


def test_program_candidate_emits_rating_then_action(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(BRAGGART)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert (claim.w, claim.y, claim.timed_out) == (F(1), 1, False)


def test_silent_candidate_pads_both_outputs(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SILENT)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert (claim.w, claim.y) == (F(0), 0)


def test_timeout_yields_the_flagged_null_claim(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SPINNER)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert claim.timed_out
    assert (claim.w, claim.y) == (F(0), 0)


def test_candidate_must_be_stepped_in_order(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SILENT)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(F(0), 0))
    with pytest.raises(ValueError):
        run_candidate_cycle(c, h, budget, binary_alphabet)


def test_replay_matches_incremental_stepping(binary_alphabet, budget):
    h = EMPTY_HISTORY
    for y, r in ((1, F(0)), (0, F(1))):
        h = append_cycle(h, y, Percept(r, 0))
    c = ExtendedCandidate.from_program(BRAGGART)
    for i in range(3):
        live = run_candidate_cycle(c, History(h.cycles[:i]), budget, binary_alphabet)
    assert replay_candidate(
        ExtendedCandidate.from_program(BRAGGART), h, budget, binary_alphabet
    ) == live


class TestValidation:
    def test_zero_claims_are_always_valid(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        claim = replay_candidate(c, EMPTY_HISTORY, budget, binary_alphabet)
        assert validate_claim(c, claim, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)

    def test_overclaiming_is_invalid(self, binary_alphabet, budget, pool6):
        # every 6-bit environment pays reward 0, so a claim of 1 overrates
        c = ExtendedCandidate.from_program(BRAGGART)
        claim = replay_candidate(c, EMPTY_HISTORY, budget, binary_alphabet)
        assert claim.w == 1
        assert not validate_claim(c, claim, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)

    def test_exact_claim_is_valid(self, binary_alphabet, budget, pool12):
        plain = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(plain, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        assert v > 0  # the action-echoing environments pay for action 1
        honest = ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1))
        claim = Claim(v, 1)
        assert validate_claim(honest, claim, EMPTY_HISTORY, pool12, budget, binary_alphabet, 1)
        over = ExtendedCandidate.from_oracle("over", lambda h: Claim(v + 1, 1))
        assert not validate_claim(
            over, Claim(v + 1, 1), EMPTY_HISTORY, pool12, budget, binary_alphabet, 1
        )


class TestBestVoteCycle:
    def test_clamped_overclaimer_ties_back_to_sort_order(self, binary_alphabet, budget, pool6):
        cands = [
            ExtendedCandidate.from_program(SILENT),
            ExtendedCandidate.from_program(BRAGGART),
        ]
        y, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)
        assert y == 0
        by_label = {r.candidate: r for r in rows}
        assert not by_label[BRAGGART.to_hex()].valid
        assert by_label[SILENT.to_hex()].selected

    def test_honest_positive_claim_beats_the_silent_candidate(
        self, binary_alphabet, budget, pool12
    ):
        probe = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(probe, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        cands = [
            ExtendedCandidate.from_program(SILENT),
            ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1)),
        ]
        y, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool12, budget, binary_alphabet, 1)
        assert y == 1
        assert [r.candidate for r in rows if r.selected] == ["honest"]

    def test_log_layout(self, binary_alphabet, budget, pool6):
        cands = [ExtendedCandidate.from_program(SILENT)]
        _, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool6, budget, binary_alphabet, 1)
        text = selection_log_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "cycle,candidate,claimed_w,valid,selected,action,steps_used"
        assert len(lines) == 2
        assert lines[1].startswith("1,")


class TestRunBestVote:
    def test_run_is_deterministic(self, budget):
        env = make_heavenhell(1)
        a = run_best_vote(6, budget, env, 2, seed=3)
        b = run_best_vote(6, budget, env, 2, seed=3)
        assert a == b

    def test_logs_one_row_per_candidate_per_cycle(self, budget, pool6):
        env = make_heavenhell(1)
        h, log = run_best_vote(6, budget, env, 2, seed=0)
        assert len(h) == 2
        assert len(log) == 2 * len(pool6)
        assert sum(r.selected for r in log) == 2


class TestEffectiveIntelligence:
    def test_reflexive(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        assert eff_intel_geq(c, c.fresh(), 2, pool6, budget, binary_alphabet)

    def test_honest_positive_beats_silent_but_not_conversely(
        self, binary_alphabet, budget, pool12
    ):
        probe = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(probe, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        honest = ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1))
        silent = ExtendedCandidate.from_program(SILENT)
        assert eff_intel_geq(honest, silent, 1, pool12, budget, binary_alphabet)
        assert not eff_intel_geq(silent, honest, 1, pool12, budget, binary_alphabet)

    def test_the_lifetime_must_cover_the_depth(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        with pytest.raises(ValueError, match="lifetime"):
            eff_intel_geq(c, c.fresh(), 3, pool6, budget, binary_alphabet, lifetime=2)


def test_candidate_value_needs_k_minus_1_history_cycles(binary_alphabet, budget, pool6):
    c = ExtendedCandidate.from_program(SILENT)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(F(0)))
    with pytest.raises(ValueError, match="k-1"):
        candidate_value(c, pool6, 1, 2, h, budget, binary_alphabet)


def test_composite_claim_dominates_every_member(binary_alphabet, budget, pool6):
    members = [ExtendedCandidate.from_program(p) for p in pool6]
    composite = make_composite(members, pool6, budget, binary_alphabet, lifetime=2)
    w_comp = validated_claim_weight(
        composite, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2
    )
    for m in members:
        w_m = validated_claim_weight(m, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)
        assert w_comp >= w_m
