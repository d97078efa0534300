"""Bandit environments, policies, and the confounded-play simulator."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandit_oracle

from causalkit import (
    BanditEnv,
    BetaPosterior,
    CausalThompsonPolicy,
    EpsilonGreedyPolicy,
    MissingIntent,
    OraclePolicy,
    Round,
    SchemaMismatch,
    ThompsonPolicy,
    UniformPolicy,
    UnknownArm,
    env_from_dict,
    env_to_dict,
    make_policy,
    simulate,
)
from causalkit import fixtures as fx


# -- posteriors -----------------------------------------------------------------


def test_posterior_fold():
    p = BetaPosterior()
    assert (p.alpha, p.beta) == (1.0, 1.0)
    assert p.mean() == 0.5
    up = p.update(1).update(1).update(0)
    assert (up.alpha, up.beta) == (3.0, 2.0)
    assert up.mean() == pytest.approx(0.6)


def test_posterior_immutable_update():
    p = BetaPosterior()
    q = p.update(1)
    assert (p.alpha, p.beta) == (1.0, 1.0)
    assert q is not p
    with pytest.raises(ValueError):
        p.update(2)
    with pytest.raises(ValueError):
        BetaPosterior(0.0, 1.0)


def test_posterior_sample_within_unit_interval():
    rng = np.random.default_rng(0)
    p = BetaPosterior(3, 2)
    draws = [p.sample(rng) for _ in range(100)]
    assert all(0.0 <= d <= 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.6) < 0.1


# -- environments ------------------------------------------------------------------


def test_env_validation():
    with pytest.raises(SchemaMismatch):
        BanditEnv(payout={"a": (0.5,)})  # states don't match payout rows
    with pytest.raises(SchemaMismatch):
        BanditEnv(payout={"": (1.5,)})
    with pytest.raises(SchemaMismatch):
        BanditEnv(
            payout={"0": (0.5, 0.5), "1": (0.5,)},
            confounder_states=("0", "1"),
            confounder_probs=(0.5, 0.5),
        )
    with pytest.raises(SchemaMismatch):
        BanditEnv(
            payout={"0": (0.5,), "1": (0.5,)},
            confounder_states=("0", "1"),
            confounder_probs=(0.9, 0.2),
        )
    with pytest.raises(SchemaMismatch):
        BanditEnv(
            payout={"0": (0.5,), "1": (0.5,)},
            confounder_states=("0", "1"),
            confounder_probs=(float("nan"), float("nan")),
        )
    with pytest.raises(UnknownArm):
        BanditEnv(
            payout={"0": (0.5, 0.5), "1": (0.5, 0.5)},
            confounder_states=("0", "1"),
            confounder_probs=(0.5, 0.5),
            intuition={"0": 0, "1": 5},
        )
    with pytest.raises(SchemaMismatch, match="nonempty and unique"):
        BanditEnv(payout={}, confounder_states=(), confounder_probs=())
    with pytest.raises(SchemaMismatch, match="nonempty and unique"):
        BanditEnv(payout={"0": (0.5,)}, confounder_states=("0", "0"),
                  confounder_probs=(0.5, 0.5))
    with pytest.raises(SchemaMismatch, match="probabilities must match states"):
        BanditEnv(payout={"0": (0.5,), "1": (0.5,)}, confounder_states=("0", "1"),
                  confounder_probs=(1.0,))
    with pytest.raises(SchemaMismatch, match="intuition must cover every"):
        BanditEnv(payout={"0": (0.5, 0.5), "1": (0.5, 0.5)},
                  confounder_states=("0", "1"), confounder_probs=(0.5, 0.5),
                  intuition={"0": 0})


def test_env_expectations():
    env = fx.paradoxical_env()
    assert env.arms == 2
    assert env.confounded
    # both arms are marginally worth 0.3, but each state has a 0.5 arm
    assert env.marginal_expected(0) == pytest.approx(0.3)
    assert env.marginal_expected(1) == pytest.approx(0.3)
    assert env.best_expected("0") == pytest.approx(0.5)
    assert env.best_expected("1") == pytest.approx(0.5)
    assert env.expected("0", 0) == pytest.approx(0.1)
    with pytest.raises(UnknownArm):
        env.expected("0", 7)
    for arm in (-1, env.arms):
        with pytest.raises(UnknownArm):
            env.marginal_expected(arm)


def test_two_arm_env_shape():
    env = fx.two_arm_env()
    assert not env.confounded
    assert env.payout[""] == (0.7, 0.3)


# -- policies ----------------------------------------------------------------------


def test_make_policy_table():
    assert isinstance(make_policy("thompson"), ThompsonPolicy)
    assert isinstance(make_policy("causal_thompson"), CausalThompsonPolicy)
    assert isinstance(make_policy("uniform"), UniformPolicy)
    assert isinstance(make_policy("oracle"), OraclePolicy)
    greedy = make_policy("greedy")
    assert isinstance(greedy, EpsilonGreedyPolicy) and greedy.epsilon == 0.0
    eps = make_policy("epsilon", epsilon=0.25)
    assert eps.epsilon == 0.25
    with pytest.raises(SchemaMismatch):
        make_policy("ucb")
    with pytest.raises(ValueError):
        make_policy("epsilon", epsilon=1.5)


def test_pure_greedy_locks_onto_seeded_payout():
    # a fictitious win on the inferior arm traps a zero-exploration agent:
    # the untried arm's estimate stays 0 and can never win an argmax
    env = fx.two_arm_env()
    policy = make_policy("greedy")
    policy.reset(env)
    policy.seed_pull(1, 1)
    rng = np.random.default_rng(4)
    for _ in range(300):
        arm = policy.choose(rng)
        assert arm == 1
        policy.observe(arm, int(rng.random() < env.expected("", arm)))


def test_pure_greedy_never_explores_under_simulation():
    result = simulate(fx.two_arm_env(), make_policy("greedy"), 300, seed=4)
    assert result.policy == "greedy"
    # zero estimates tie toward the lowest index and a win keeps it there
    assert all(r.arm == 0 for r in result.rounds)


def test_epsilon_exploration_breaks_lock_in():
    env = fx.two_arm_env()
    policy = EpsilonGreedyPolicy(0.1)
    policy.reset(env)
    policy.seed_pull(1, 1)
    rng = np.random.default_rng(4)
    picks = []
    for _ in range(3000):
        arm = policy.choose(rng)
        picks.append(arm)
        policy.observe(arm, int(rng.random() < env.expected("", arm)))
    tail = picks[-300:]
    assert sum(1 for a in tail if a == 0) / len(tail) > 0.5


def test_uniform_policy_divides_pulls():
    env = fx.five_arm_env()
    result = simulate(env, make_policy("uniform"), horizon=5000, seed=8)
    for arm in range(5):
        assert abs(result.arm_frequency(arm) - 0.2) < 0.05


def test_thompson_converges_on_best_arm():
    env = fx.two_arm_env()
    result = simulate(env, make_policy("thompson"), horizon=4000, seed=2)
    assert result.arm_frequency(0, tail=0.1) > 0.95


def test_thompson_on_five_arms():
    env = fx.five_arm_env()
    result = simulate(env, make_policy("thompson"), horizon=6000, seed=2)
    assert result.arm_frequency(4, tail=0.1) > 0.9


def test_oracle_has_zero_conditional_regret():
    for env in (fx.two_arm_env(), fx.paradoxical_env()):
        result = simulate(env, make_policy("oracle"), horizon=500, seed=1)
        assert result.final_regret() == 0.0


def test_causal_thompson_needs_intent():
    env = fx.two_arm_env()
    with pytest.raises(MissingIntent):
        simulate(env, make_policy("causal_thompson"), horizon=10, seed=0)
    # simulate asks choose first, so observe's own check is reached only directly
    policy = CausalThompsonPolicy()
    policy.reset(fx.paradoxical_env())
    with pytest.raises(MissingIntent):
        policy.observe(0, 1)


def test_thompson_policies_refuse_a_reward_outside_0_1():
    env = fx.paradoxical_env()
    for policy, intent in ((ThompsonPolicy(), None), (CausalThompsonPolicy(), 0)):
        policy.reset(env)
        for reward in (-1, 2):
            with pytest.raises(ValueError, match="reward must be 0 or 1"):
                policy.observe(0, reward, intent=intent)


def test_causal_thompson_beats_standard_when_confounded():
    env = fx.paradoxical_env()
    standard = simulate(env, make_policy("thompson"), horizon=2000, seed=3)
    causal = simulate(env, make_policy("causal_thompson"), horizon=2000, seed=3)
    assert causal.final_regret() < standard.final_regret()


def test_causal_matches_standard_without_real_confounding():
    env = fx.single_intent_env()
    seeds = range(6)
    standard = np.mean(
        [simulate(env, make_policy("thompson"), 1500, s).final_regret() for s in seeds]
    )
    causal = np.mean(
        [
            simulate(env, make_policy("causal_thompson"), 1500, s).final_regret()
            for s in seeds
        ]
    )
    assert abs(standard - causal) < 0.15 * max(standard, causal)


# -- simulator ---------------------------------------------------------------------


def test_simulate_deterministic():
    env = fx.paradoxical_env()
    a = simulate(env, make_policy("thompson"), horizon=200, seed=9)
    b = simulate(env, make_policy("thompson"), horizon=200, seed=9)
    c = simulate(env, make_policy("thompson"), horizon=200, seed=10)
    assert a == b
    assert a != c


THOMPSON_LOG_SHA256 = {
    ("thompson", "two_arm_env"):
        "de9a7a3779eb3806813f8d750b901ed2945be60dfcb686c9e5c9440cdedbb806",
    ("thompson", "paradoxical_env"):
        "3b88728328d946bca8e7280095ff0f1e2d6b1fdae3931f93a4d9777c8d26e4d3",
    ("causal_thompson", "paradoxical_env"):
        "0bb206bd1af85d0f7af5cf35541afbf267200a7c10b80ed8fee85e03c48eac20",
    ("causal_thompson", "single_intent_env"):
        "c0db773b2aad782aa6877d23acb4b5cafca8f9d0ea72b67fbd21d90815a05822",
}


@pytest.mark.parametrize("policy, env", sorted(THOMPSON_LOG_SHA256))
def test_thompson_logs_pinned(policy, env):
    """Per-round logs (arm, reward, intent, cumulative regret) of both
    Thompson policies on seeds 0-4, pinned bit for bit: both sample
    through one posterior-draw routine and must keep the RNG call order."""
    digest = hashlib.sha256()
    for seed in range(5):
        result = simulate(getattr(fx, env)(), make_policy(policy), 400, seed)
        digest.update(result.to_csv().encode())
    assert digest.hexdigest() == THOMPSON_LOG_SHA256[(policy, env)]


POLICIES = ("greedy", "epsilon", "thompson", "causal_thompson", "uniform", "oracle")


@st.composite
def bandit_cases(draw):
    """An environment with 1-4 confounder states of uneven (possibly zero)
    weight and 2-5 arms whose payouts tie often, with or without intuition,
    plus a policy, a regret benchmark, a horizon and a seed."""
    k = draw(st.integers(1, 4))
    arms = draw(st.integers(2, 5))
    states = tuple(f"s{i}" for i in range(k))
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    payout = {
        s: tuple(draw(st.lists(
            st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9, 1.0)),
            min_size=arms, max_size=arms,
        )))
        for s in states
    }
    intuition = None
    if draw(st.booleans()):
        intuition = {s: draw(st.integers(0, arms - 1)) for s in states}
    env = BanditEnv(
        payout=payout,
        confounder_states=states,
        confounder_probs=tuple(w / sum(weights) for w in weights),
        intuition=intuition,
    )
    return (
        env,
        draw(st.sampled_from(POLICIES)),
        draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        draw(st.sampled_from(("conditional", "marginal"))),
        draw(st.integers(0, 300)),
        draw(st.integers(0, 2**32 - 1)),
    )


def _log(simulate_fn, policy, env, horizon, seed, benchmark):
    try:
        result = simulate_fn(env, policy, horizon, seed, regret_benchmark=benchmark)
    except MissingIntent:
        return "MissingIntent"
    return result.policy, result.to_csv()


@settings(max_examples=200, deadline=None)
@given(bandit_cases())
def test_simulate_matches_slow_oracle(case):
    """The scalar-draw loop against the array-draw loop it replaced: same
    PCG64 stream, so the same log byte for byte, for every policy."""
    env, name, epsilon, benchmark, horizon, seed = case
    fast = _log(simulate, make_policy(name, epsilon), env, horizon, seed, benchmark)
    slow = _log(
        bandit_oracle.simulate, bandit_oracle.make_policy(name, epsilon),
        env, horizon, seed, benchmark,
    )
    assert fast == slow


def test_cumulative_regret_monotone():
    env = fx.two_arm_env()
    result = simulate(env, make_policy("uniform"), horizon=400, seed=5)
    assert all(
        b - a >= -1e-12
        for a, b in zip(result.cum_regret, result.cum_regret[1:])
    )
    assert result.final_regret() == result.cum_regret[-1]


def test_marginal_benchmark_flag():
    env = fx.paradoxical_env()
    # against the marginal benchmark, every arm has the same expectation:
    # regret contributions can be negative when play beats the fixed arm
    result = simulate(
        env, make_policy("oracle"), horizon=300, seed=6,
        regret_benchmark="marginal",
    )
    assert result.final_regret() < 0.0
    with pytest.raises(ValueError):
        simulate(env, make_policy("oracle"), 10, 0, regret_benchmark="other")


def test_zero_horizon():
    result = simulate(fx.two_arm_env(), make_policy("thompson"), 0, 0)
    assert result.rounds == ()
    assert result.final_regret() == 0.0
    assert result.arm_frequency(0) == 0.0
    with pytest.raises(ValueError):
        simulate(fx.two_arm_env(), make_policy("thompson"), -1, 0)


def test_rounds_record_intent():
    env = fx.paradoxical_env()
    result = simulate(env, make_policy("thompson"), horizon=50, seed=1)
    assert all(r.intent in (0, 1) for r in result.rounds)
    flat = simulate(fx.two_arm_env(), make_policy("thompson"), 50, 1)
    assert all(r.intent is None for r in flat.rounds)


def test_run_result_csv():
    result = simulate(fx.two_arm_env(), make_policy("thompson"), 5, 1)
    lines = result.to_csv().splitlines()
    assert lines[0] == "round,arm,intent,reward,cum_regret"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == ""  # no intent in the unconfounded environment
    # regret column uses repr so the float round-trips exactly
    assert float(first[4]) == result.cum_regret[0]


def test_misbehaving_policy_caught():
    class Rogue:
        name = "rogue"

        def reset(self, env):
            pass

        def choose(self, rng, intent=None, state=None):
            return 99

        def observe(self, arm, reward, intent=None):
            pass

    with pytest.raises(UnknownArm):
        simulate(fx.two_arm_env(), Rogue(), horizon=1, seed=0)


# -- serialization ------------------------------------------------------------------


def test_env_json_roundtrip_unconfounded():
    env = fx.two_arm_env()
    payload = env_to_dict(env)
    assert payload == {"arms": 2, "payout": [0.7, 0.3]}
    assert env_from_dict(json.loads(json.dumps(payload))) == env


def test_env_json_roundtrip_confounded():
    env = fx.paradoxical_env()
    payload = env_to_dict(env)
    assert payload["confounder"]["states"] == ["0", "1"]
    assert payload["intuition"] == {"0": 0, "1": 1}
    assert env_from_dict(json.loads(json.dumps(payload))) == env


def test_env_from_dict_checks_arm_count():
    with pytest.raises(SchemaMismatch):
        env_from_dict({"arms": 3, "payout": [0.5, 0.5]})
