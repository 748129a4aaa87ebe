"""PRNG reproducibility, oracle policies, and the per-step query cache."""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm.errors import BasmError
from basm.geometry import Circle, Point
from basm.oracles import (
    BuiltinPolicy,
    Interaction,
    InteractivePolicy,
    OracleSession,
    Refused,
    ScriptedPolicy,
    SplitMix64,
    UniformRandomPolicy,
    choose_policy,
)
from basm.state import CIRCLE, INTEGER, POINT, UNDEF, Location, Vocabulary

MASK = (1 << 64) - 1


def _ref_stream(seed, n):
    """Independent reference splitmix64, straight from the published constants."""
    out = []
    s = seed & MASK
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


# First five outputs for seed 0, as published with the reference C code.
SEED0_VECTOR = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_splitmix64_seed0_reference_vector():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == SEED0_VECTOR


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 12345678901234567890])
def test_splitmix64_matches_independent_implementation(seed):
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(20)] == _ref_stream(seed, 20)


def test_uniform_int_spread():
    g = SplitMix64(42)
    n = 100_000
    counts = [0] * 6
    for _ in range(n):
        counts[g.uniform_int(0, 5)] += 1
    for c in counts:
        assert abs(c / n - 1 / 6) < 0.01


def test_uniform_int_edges():
    g = SplitMix64(7)
    assert g.uniform_int(3, 3) == 3
    with pytest.raises(BasmError) as e:
        g.uniform_int(4, 3)
    assert e.value.kind == "oracle-domain"
    # A 2^64-wide segment rejects nothing; a wider one would reject every draw.
    assert SplitMix64(0).uniform_int(0, 2**64 - 1) == SEED0_VECTOR[0]
    with pytest.raises(BasmError) as e:
        g.uniform_int(0, 2**64)
    assert e.value.kind == "oracle-domain"


@settings(max_examples=100)
@given(st.integers(0, 2**64 - 1), st.integers(-1000, 1000), st.integers(0, 50))
def test_uniform_int_stays_in_segment(seed, b, width):
    g = SplitMix64(seed)
    v = g.uniform_int(b, b + width)
    assert b <= v <= b + width


def _vocab():
    v = Vocabulary()
    v.declare("Random", (INTEGER, INTEGER), INTEGER, "oracle")
    v.declare("I", (CIRCLE, CIRCLE), POINT, "oracle")
    v.declare("Ask", (), INTEGER, "oracle")
    return v


C_MAIN = Circle(Point(0.0, 0.0), Point(5.0, 0.0))
C_AUX = Circle(Point(5.0, 0.0), Point(10.0, 0.0))


def _intersection_query(v):
    return Location(v.symbol("I"), (C_MAIN, C_AUX))


def test_builtin_policy_intersection_choice():
    v = _vocab()
    q = _intersection_query(v)
    lo = OracleSession(BuiltinPolicy(0), v).ask(q)
    hi = OracleSession(BuiltinPolicy(1), v).ask(q)
    assert lo.y < 0 < hi.y
    assert lo.x == hi.x == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(BasmError):
        BuiltinPolicy(2)


def test_builtin_policy_segment_answers_lower_endpoint():
    v = _vocab()
    s = OracleSession(BuiltinPolicy(), v)
    assert s.ask(Location(v.symbol("Random"), (2, 13))) == 2


def test_builtin_policy_rejects_unknown_signature_and_undef():
    v = _vocab()
    s = OracleSession(BuiltinPolicy(), v)
    with pytest.raises(BasmError) as e:
        s.ask(Location(v.symbol("Ask"), ()))
    assert e.value.kind == "oracle-domain"
    with pytest.raises(BasmError) as e:
        s.ask(Location(v.symbol("I"), (C_MAIN, UNDEF)))
    assert e.value.kind == "oracle-domain"


def test_uniform_policy_is_seed_deterministic():
    v = _vocab()
    q = Location(v.symbol("Random"), (0, 100))

    def draws(seed):
        s = OracleSession(UniformRandomPolicy(seed), v)
        out = []
        for _ in range(10):
            s.begin_step()
            out.append(s.ask(q))
        return out

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


@pytest.mark.parametrize("b, c", [(0, 100), (-7, -7), (0, 2**63), (1, 2**64)])
def test_uniform_policy_segment_draws_like_uniform_int(b, c):
    """Same answers and the same PRNG draws as uniform_int(b, c), also for
    segments wider than len() of a range allows."""
    v = _vocab()
    s = OracleSession(UniformRandomPolicy(9), v)
    ref = SplitMix64(9)
    for _ in range(5):
        s.begin_step()
        assert s.ask(Location(v.symbol("Random"), (b, c))) == ref.uniform_int(b, c)
    assert s.prng.state == ref.state


def test_session_cache_one_query_one_log_entry():
    v = _vocab()
    s = OracleSession(UniformRandomPolicy(1), v)
    q = Location(v.symbol("Random"), (0, 1000))
    s.begin_step()
    a1 = s.ask(q)
    a2 = s.ask(q)
    assert a1 == a2
    assert list(s.per_step_cache.values()) == [Interaction("Random", (0, 1000), a1)]
    s.begin_step()  # the table clears at the step boundary
    assert not s.per_step_cache
    a3 = s.ask(q)
    # distinct queries in one step are distinct entries, in the order asked
    a4 = s.ask(Location(v.symbol("Random"), (0, 999)))
    assert list(s.per_step_cache.values()) == [Interaction("Random", (0, 1000), a3),
                                               Interaction("Random", (0, 999), a4)]
    assert a3 in range(0, 1001)


def test_scripted_policy_strict_order_and_exhaustion():
    v = _vocab()
    q = Location(v.symbol("Random"), (2, 13))
    entries = [Interaction("Random", (2, 13), 4)]
    s = OracleSession(ScriptedPolicy(entries), v)
    s.begin_step()
    assert s.ask(q) == 4
    s.begin_step()
    with pytest.raises(BasmError) as e:
        s.ask(q)
    assert e.value.kind == "script"

    wrong_args = OracleSession(ScriptedPolicy([Interaction("Random", (9, 9), 4)]), v)
    with pytest.raises(BasmError) as e:
        wrong_args.ask(q)
    assert e.value.kind == "script"


def test_a_strict_script_entry_for_another_oracle_names_both():
    v = _vocab()
    s = OracleSession(ScriptedPolicy([Interaction("I", None, Point(0.0, 0.0))]), v)
    with pytest.raises(BasmError) as e:
        s.ask(Location(v.symbol("Random"), (2, 13)))
    assert (e.value.kind, e.value.message) == (
        "script", "script expected I, program asked Random(2,13)")


def test_uniform_policy_computes_a_reclassified_static_without_a_draw():
    v = Vocabulary(("mod",))
    s = OracleSession(UniformRandomPolicy(7), v)
    before = s.prng.state
    assert s.ask(Location(v.symbol("mod"), (17, 5))) == 2
    assert s.prng.state == before
    assert list(s.per_step_cache.values()) == [Interaction("mod", (17, 5), 2)]


def test_a_strict_reclassified_static_answers_undef_for_an_undef_argument():
    v = Vocabulary(("mod", "="))
    s = OracleSession(BuiltinPolicy(), v)
    assert s.ask(Location(v.symbol("mod"), (UNDEF, 5))) is UNDEF
    # `=` is not strict: undef equals undef.
    assert s.ask(Location(v.symbol("="), (UNDEF, UNDEF))) is True


def test_scripted_policy_by_symbol_ignores_args():
    v = _vocab()
    policy = ScriptedPolicy([Interaction("Random", None, 4), Interaction("Random", None, 11)])
    s = OracleSession(policy, v)
    s.begin_step()
    assert s.ask(Location(v.symbol("Random"), (2, 13))) == 4
    s.begin_step()
    assert s.ask(Location(v.symbol("Random"), (0, 1))) == 11


def test_choose_policy_rules():
    def script():
        return ScriptedPolicy.from_answers([1])

    assert type(choose_policy()) is BuiltinPolicy
    assert choose_policy(choice=1).intersection_choice == 1
    assert choose_policy(seed=5).seed == 5
    assert type(choose_policy(seed=5, script=script)) is ScriptedPolicy
    assert choose_policy(default=("uniform", 42)).seed == 42
    assert choose_policy(choice=0, default=("uniform", 42)).intersection_choice == 0
    # A named policy wins, and is built from the flags that apply to it.
    assert choose_policy("uniform", seed=3, choice=1, script=script).seed == 3
    assert choose_policy("builtin", seed=3, choice=1).intersection_choice == 1
    with pytest.raises(BasmError) as e:
        choose_policy(seed=2, choice=1)
    assert e.value.kind == "corpus"
    with pytest.raises(BasmError) as e:
        choose_policy("scripted")
    assert e.value.kind == "script"


def test_session_rejects_ill_sorted_answers():
    v = _vocab()
    s = OracleSession(ScriptedPolicy([Interaction("Random", None, True)]), v)
    with pytest.raises(BasmError) as e:
        s.ask(Location(v.symbol("Random"), (0, 1)))
    assert e.value.kind == "sort"


@pytest.mark.parametrize("policy, kind", [
    (BuiltinPolicy(), "oracle-domain"),
    (UniformRandomPolicy(3), "oracle-domain"),
    (ScriptedPolicy(), "script"),
    (ScriptedPolicy([Interaction("Random", None, True)]), "sort"),
    (InteractivePolicy(io.StringIO(""), io.StringIO()), "aborted"),
])
def test_a_refused_query_is_logged_with_its_kind_before_the_error_goes_on(policy, kind):
    v = _vocab()
    s = OracleSession(policy, v)
    s.begin_step()
    with pytest.raises(BasmError) as e:
        s.ask(Location(v.symbol("Random"), (5, 1)))
    assert e.value.kind == kind
    assert list(s.per_step_cache.values()) == [Interaction("Random", (5, 1), Refused(kind))]


def test_a_refused_query_asked_again_in_its_step_is_refused_again():
    """A refusal stays in the step's table: asking its query again in the
    step raises the kind again, asks the policy nothing and never answers
    with the `Refused`. The next step asks afresh."""
    v = _vocab()
    q = Location(v.symbol("Random"), (5, 1))
    refused = Interaction("Random", (5, 1), Refused("arith"))
    s = OracleSession(ScriptedPolicy([refused, Interaction("Random", None, 3)]), v)
    s.begin_step()
    for _ in range(2):
        with pytest.raises(BasmError) as e:
            s.ask(q)
        assert e.value.kind == "arith"
    assert s.policy.cursor == 1
    assert list(s.per_step_cache.values()) == [refused]
    s.begin_step()
    assert s.ask(q) == 3


def test_a_script_refuses_where_it_recorded_a_refusal():
    v = _vocab()
    q = Location(v.symbol("Random"), (5, 1))
    s = OracleSession(ScriptedPolicy([Interaction("Random", (5, 1), Refused("arith"))]), v)
    with pytest.raises(BasmError) as e:
        s.ask(q)
    assert (e.value.kind, e.value.message) == ("arith", "the script refuses Random(5,1)")
    assert list(s.per_step_cache.values()) == [Interaction("Random", (5, 1), Refused("arith"))]
    # A refusal is matched as an answer is: another query gets a script error.
    other = OracleSession(ScriptedPolicy([Interaction("Random", (5, 2), Refused("arith"))]), v)
    with pytest.raises(BasmError) as e:
        other.ask(q)
    assert e.value.kind == "script"


def test_interactive_policy_picks_candidate_by_index():
    v = _vocab()
    out = io.StringIO()
    policy = InteractivePolicy(io.StringIO("1\n"), out)
    answer = OracleSession(policy, v).ask(_intersection_query(v))
    assert answer.y > 0
    prompt = out.getvalue()
    assert "[0]" in prompt and "[1]" in prompt


def test_interactive_policy_parses_literals_and_retries():
    v = _vocab()
    out = io.StringIO()
    policy = InteractivePolicy(io.StringIO("garbage\n17\n"), out)
    assert OracleSession(policy, v).ask(Location(v.symbol("Random"), (0, 100))) == 17
    assert "cannot read answer" in out.getvalue()


def test_interactive_policy_eof_aborts():
    v = _vocab()
    policy = InteractivePolicy(io.StringIO(""), io.StringIO())
    with pytest.raises(BasmError) as e:
        OracleSession(policy, v).ask(Location(v.symbol("Random"), (0, 100)))
    assert e.value.kind == "aborted"
