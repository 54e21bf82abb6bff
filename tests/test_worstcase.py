import pytest

from blocaudit import (
    Election,
    GeneratorSpec,
    PreconditionError,
    ScoringVector,
    check_ilvb,
    generate,
    qpsc_method,
    remove_ballots,
    tabulate,
)
from blocaudit.rationals import rational
from blocaudit.worstcase import FAMILIES

ALL_K = (1, 2, 3, 4, 5)
K_FROM_TWO = (2, 3, 4, 5)


def run_case(case, method):
    if method == "qpsc":
        rule = qpsc_method(case.options["sv"], case.options["q_mode"])
        before = rule(case.election)
        reduced = Election(
            remove_ballots(case.election.profile, case.removal),
            case.election.k,
            case.election.title,
        )
        after = rule(reduced)
    else:
        before = tabulate(case.election, method)
        reduced = Election(
            remove_ballots(case.election.profile, case.removal),
            case.election.k,
            case.election.title,
        )
        after = tabulate(reduced, method)
    return before, after


def assert_case_flips(case, method):
    before, after = run_case(case, method)
    assert before.winners.members == case.winners_before, (
        f"{method}: before {sorted(before.winners.members)} "
        f"!= {sorted(case.winners_before)}"
    )
    assert after.winners.members == case.winners_after, (
        f"{method}: after {sorted(after.winners.members)} "
        f"!= {sorted(case.winners_after)}"
    )
    assert not before.winners.tie_flag, f"{method}: tie before removal"
    assert not after.winners.tie_flag, f"{method}: tie after removal"


@pytest.mark.parametrize("k", ALL_K)
@pytest.mark.parametrize("family", ["STV_ILVB", "EAR_ILVB"])
def test_loser_ballot_families(family, k):
    case = generate(GeneratorSpec(family, k))
    for method in case.methods:
        assert_case_flips(case, method)
    # these constructions are loser-ballot removals by design
    record = check_ilvb(case.election, case.methods[0], case.removal)
    assert record is not None
    assert record.modified_winners.members == case.winners_after


@pytest.mark.parametrize("k", K_FROM_TWO)
@pytest.mark.parametrize(
    "family",
    ["STV_IWVB", "EAR_IWVB", "STV_IWVB_STAR", "EAR_IWVB_STAR", "CC_IWVB"],
)
def test_winner_ballot_families(family, k):
    case = generate(GeneratorSpec(family, k))
    assert case.methods, "every construction names at least one method"
    for method in case.methods:
        assert_case_flips(case, method)


@pytest.mark.parametrize("family", ["QPSC_LEFT", "QPSC_RIGHT"])
def test_scoring_rule_families(family):
    case = generate(GeneratorSpec(family, 2))
    assert case.methods == ("qpsc",)
    assert_case_flips(case, "qpsc")


def test_star_family_keeps_shared_winner():
    # the strict variant demands the ranked winner keep a seat while the
    # committee still changes
    for family in ("STV_IWVB_STAR", "EAR_IWVB_STAR"):
        case = generate(GeneratorSpec(family, 3))
        shared = case.winners_before & case.winners_after
        assert shared, family
        assert case.winners_before != case.winners_after


def test_stv_star_family_explicit_parameters():
    case = generate(GeneratorSpec("STV_IWVB_STAR", 3, a=1000, b=20, c=13))
    assert case.options == {"a": 1000, "b": 20, "c": 13}
    assert "scottish" in case.methods
    assert_case_flips(case, "scottish")


@pytest.mark.parametrize("c", [12, 15, 16])
def test_stv_star_family_rejects_out_of_region(c):
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("STV_IWVB_STAR", 3, a=1000, b=20, c=c))


def test_stv_star_family_boundary_parameters_accepted():
    for c in (13, 14):
        case = generate(GeneratorSpec("STV_IWVB_STAR", 3, a=1000, b=20, c=c))
        assert_case_flips(case, "scottish")


def test_family_k_floor_validation():
    for family in ("STV_IWVB", "EAR_IWVB", "STV_IWVB_STAR", "EAR_IWVB_STAR",
                   "CC_IWVB"):
        with pytest.raises(PreconditionError):
            generate(GeneratorSpec(family, 1))
    for family in ("STV_ILVB", "EAR_ILVB"):
        with pytest.raises(PreconditionError):
            generate(GeneratorSpec(family, 0))
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec("QPSC_LEFT", 3))


def test_unread_size_parameter_rejected():
    # only the IWVB* families read a, b, c; the others refuse them
    with pytest.raises(PreconditionError, match="does not read c"):
        generate(GeneratorSpec("CC_IWVB", 2, c=1))
    with pytest.raises(PreconditionError, match="does not read b"):
        generate(GeneratorSpec("EAR_IWVB_STAR", 2, a=5, b=3))


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        GeneratorSpec("NOT_A_FAMILY", 2)


def test_families_constant_is_complete():
    assert set(FAMILIES) == {
        "STV_ILVB",
        "EAR_ILVB",
        "STV_IWVB",
        "EAR_IWVB",
        "STV_IWVB_STAR",
        "EAR_IWVB_STAR",
        "CC_IWVB",
        "QPSC_LEFT",
        "QPSC_RIGHT",
    }
    for family in FAMILIES:
        k = 2
        case = generate(GeneratorSpec(family, k))
        assert case.election.k == k
        assert case.removal.total > 0


def test_generated_parties_partition_blocks():
    # party labels group the interchangeable blocks, which the party-swap
    # search relies on
    case = generate(GeneratorSpec("STV_ILVB", 2))
    parties = {c.id: c.party for c in case.election.profile.candidates}
    assert len(set(parties.values())) >= 2
