"""Bernoulli multi-armed bandits, optionally confounded by player intent.

A BanditEnv fixes per-arm success probabilities, either flat or per
confounder state. In the confounded case each state also determines the
arm a naive player would reach for (the intent); policies observe the
intent but never the state itself. Each Thompson policy keeps a table of
Beta(α, β) posteriors, one α list and one β list over the arms per key
(None for the intent-blind policy, the intent for the causal one), created
at (1, 1) on the key's first use and updated in place. Regret is measured
per round against the best arm given the realized confounder state (a
marginal-optimum benchmark is available behind a flag). All randomness
flows through one numpy PCG64 generator seeded explicitly, drawn one
scalar at a time in a fixed order, so a seed fixes every draw of a run.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import MissingIntent, SchemaMismatch, UnknownArm


@dataclass(frozen=True)
class BetaPosterior:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")

    def update(self, reward: int) -> "BetaPosterior":
        if reward not in (0, 1):
            raise ValueError("reward must be 0 or 1")
        return BetaPosterior(self.alpha + reward, self.beta + (1 - reward))

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.alpha, self.beta))


@dataclass(frozen=True)
class BanditEnv:
    """Arm success probabilities, per confounder state.

    payout[state][arm] is the Bernoulli success probability. An
    unconfounded environment has the single state "" and no intuition;
    a confounded one also maps each state to the intent arm.
    """

    payout: Mapping[str, tuple[float, ...]]
    confounder_states: tuple[str, ...] = ("",)
    confounder_probs: tuple[float, ...] = (1.0,)
    intuition: Optional[Mapping[str, int]] = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "payout",
            {s: tuple(float(p) for p in v) for s, v in self.payout.items()},
        )
        states = tuple(self.confounder_states)
        object.__setattr__(self, "confounder_states", states)
        object.__setattr__(
            self, "confounder_probs", tuple(float(p) for p in self.confounder_probs)
        )
        if len(set(states)) != len(states) or not states:
            raise SchemaMismatch("confounder states must be nonempty and unique")
        if set(self.payout) != set(states):
            raise SchemaMismatch("payout rows must match confounder states")
        if len(self.confounder_probs) != len(states):
            raise SchemaMismatch("confounder probabilities must match states")
        if not abs(sum(self.confounder_probs) - 1.0) <= 1e-9 or any(  # NaN fails too
            p < 0 for p in self.confounder_probs
        ):
            raise SchemaMismatch("confounder probabilities must form a distribution")
        arm_counts = {len(v) for v in self.payout.values()}
        if len(arm_counts) != 1 or 0 in arm_counts:
            raise SchemaMismatch("every state needs the same nonzero arm count")
        for dist in self.payout.values():
            if any(not 0.0 <= p <= 1.0 for p in dist):
                raise SchemaMismatch("payout probabilities must lie in [0, 1]")
        if self.intuition is not None:
            object.__setattr__(self, "intuition", dict(self.intuition))
            if set(self.intuition) != set(states):
                raise SchemaMismatch("intuition must cover every confounder state")
            for arm in self.intuition.values():
                if not 0 <= arm < self.arms:
                    raise UnknownArm(arm, self.arms)

    @property
    def arms(self) -> int:
        return len(next(iter(self.payout.values())))

    @property
    def confounded(self) -> bool:
        return self.intuition is not None

    def expected(self, state: str, arm: int) -> float:
        if not 0 <= arm < self.arms:
            raise UnknownArm(arm, self.arms)
        return self.payout[state][arm]

    def best_expected(self, state: str) -> float:
        return max(self.payout[state])

    def marginal_expected(self, arm: int) -> float:
        if not 0 <= arm < self.arms:
            raise UnknownArm(arm, self.arms)
        return sum(
            p * self.payout[s][arm]
            for s, p in zip(self.confounder_states, self.confounder_probs)
        )


class ThompsonPolicy:
    """Intent-blind Thompson sampling: one table under the key None."""

    name = "thompson"

    def reset(self, env: BanditEnv) -> None:
        arms = env.arms
        self.posteriors = defaultdict(lambda: ([1.0] * arms, [1.0] * arms))

    def _play(self, key, rng: np.random.Generator) -> int:
        """Draw Beta(α, β) for each arm of `key`'s table, in arm order, and
        play the first maximum; the scalar draws consume the stream as one
        array draw would."""
        draws = list(map(rng.beta, *self.posteriors[key]))
        return draws.index(max(draws))

    def _update(self, key, arm: int, reward: int) -> None:
        if reward not in (0, 1):
            raise ValueError("reward must be 0 or 1")
        alphas, betas = self.posteriors[key]
        alphas[arm] += reward
        betas[arm] += 1 - reward

    def choose(self, rng, intent=None, state=None) -> int:
        return self._play(None, rng)

    def observe(self, arm: int, reward: int, intent=None) -> None:
        self._update(None, arm, reward)


class EpsilonGreedyPolicy:
    """Sample-mean greedy with epsilon exploration; epsilon=0 is pure greedy.

    Unpulled arms estimate 0, so a pure-greedy agent locks onto the first
    arm that ever pays out.
    """

    def __init__(self, epsilon: float = 0.1):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self.name = "greedy" if epsilon == 0.0 else "epsilon"

    def reset(self, env: BanditEnv) -> None:
        self.pulls = [0] * env.arms
        self.wins = [0] * env.arms

    def estimates(self) -> list[float]:
        return [
            w / c if c else 0.0 for w, c in zip(self.wins, self.pulls)
        ]

    def choose(self, rng, intent=None, state=None) -> int:
        """Explore uniformly with probability epsilon, else play the first
        argmax of the estimates."""
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return int(rng.integers(len(self.pulls)))
        estimates = self.estimates()
        return estimates.index(max(estimates))

    def observe(self, arm: int, reward: int, intent=None) -> None:
        self.pulls[arm] += 1
        self.wins[arm] += reward

    def seed_pull(self, arm: int, reward: int) -> None:
        """Inject a fictitious prior pull (used to demonstrate lock-in)."""
        self.observe(arm, reward)


class CausalThompsonPolicy(ThompsonPolicy):
    """Thompson sampling with posteriors indexed by (intent, arm)."""

    name = "causal_thompson"

    def choose(self, rng, intent=None, state=None) -> int:
        if intent is None:
            raise MissingIntent(
                "causal Thompson sampling needs the round's intent; "
                "the environment has no confounder"
            )
        # one Thompson step over the posteriors conditioned on this round's
        # intent: for two arms, the intuition estimate E[reward | intent,
        # arm = intent] against the counter-intuition one
        return self._play(intent, rng)

    def observe(self, arm: int, reward: int, intent=None) -> None:
        if intent is None:
            raise MissingIntent("cannot update intent-conditioned posteriors")
        self._update(intent, arm, reward)


class UniformPolicy:
    name = "uniform"

    def reset(self, env: BanditEnv) -> None:
        self.arms = env.arms

    def choose(self, rng, intent=None, state=None) -> int:
        return int(rng.integers(self.arms))

    def observe(self, arm, reward, intent=None) -> None:
        pass


class OraclePolicy:
    """Plays the best arm for the realized confounder state (regret 0)."""

    name = "oracle"

    def reset(self, env: BanditEnv) -> None:
        # each state's first best arm, as np.argmax picks it
        self.best = {s: row.index(max(row)) for s, row in env.payout.items()}

    def choose(self, rng, intent=None, state=None) -> int:
        return self.best[state]

    def observe(self, arm, reward, intent=None) -> None:
        pass


def make_policy(name: str, epsilon: float = 0.1):
    table = {
        "thompson": ThompsonPolicy,
        "causal_thompson": CausalThompsonPolicy,
        "uniform": UniformPolicy,
        "oracle": OraclePolicy,
        "greedy": lambda: EpsilonGreedyPolicy(0.0),
        "epsilon": lambda: EpsilonGreedyPolicy(epsilon),
    }
    if name not in table:
        raise SchemaMismatch(f"unknown policy {name!r}")
    return table[name]()


class Round(NamedTuple):
    arm: int
    reward: int
    intent: Optional[int]


@dataclass(frozen=True)
class RunResult:
    policy: str
    rounds: tuple[Round, ...]
    cum_regret: tuple[float, ...]

    def final_regret(self) -> float:
        return self.cum_regret[-1] if self.cum_regret else 0.0

    def arm_frequency(self, arm: int, tail: float = 1.0) -> float:
        start = int(len(self.rounds) * (1.0 - tail))
        window = self.rounds[start:]
        if not window:
            return 0.0
        return sum(1 for r in window if r.arm == arm) / len(window)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["round", "arm", "intent", "reward", "cum_regret"])
        for i, (r, c) in enumerate(zip(self.rounds, self.cum_regret)):
            writer.writerow(
                [i, r.arm, "" if r.intent is None else r.intent, r.reward, repr(c)]
            )
        return buf.getvalue()


def simulate(
    env: BanditEnv,
    policy,
    horizon: int,
    seed: int,
    regret_benchmark: str = "conditional",
) -> RunResult:
    """Run one policy for `horizon` rounds.

    Per round: draw the confounder state, surface the intent (confounded
    environments only), let the policy choose, draw the Bernoulli reward,
    update the policy, and accrue regret against the benchmark: the best
    arm given the realized state ("conditional", default) or the best
    fixed arm by marginal expectation ("marginal").
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if regret_benchmark not in ("conditional", "marginal"):
        raise ValueError("regret_benchmark must be 'conditional' or 'marginal'")
    rng = np.random.default_rng(seed)
    policy.reset(env)

    states = env.confounder_states
    rows = [env.payout[s] for s in states]
    arms = env.arms
    marginal_best = max(env.marginal_expected(a) for a in range(arms))
    conditional = regret_benchmark == "conditional"
    benchmark = [max(row) if conditional else marginal_best for row in rows]
    intents = [env.intuition[s] if env.confounded else None for s in states]
    # the confounder draw of Generator.choice(k, p=probs): one uniform draw
    # looked up in the normalized CDF
    cdf = np.cumsum(env.confounder_probs)
    cdf /= cdf[-1]
    draw_state = len(states) > 1

    choose, observe, random = policy.choose, policy.observe, rng.random
    # the log is allocated up front, so a horizon too long to log fails
    # before the first round rather than after running out of room
    try:
        rounds = [None] * horizon
        cum = [0.0] * horizon
    except MemoryError:
        raise MemoryError(f"a log of {horizon} rounds does not fit") from None
    regret = 0.0
    for t in range(horizon):
        s = int(cdf.searchsorted(random(), side="right")) if draw_state else 0
        intent = intents[s]
        arm = choose(rng, intent=intent, state=states[s])
        if not 0 <= arm < arms:
            raise UnknownArm(arm, arms)
        p = rows[s][arm]
        reward = int(random() < p)
        observe(arm, reward, intent=intent)
        regret += benchmark[s] - p
        rounds[t] = Round(arm, reward, intent)
        cum[t] = regret
    return RunResult(
        policy=getattr(policy, "name", type(policy).__name__),
        rounds=tuple(rounds),
        cum_regret=tuple(cum),
    )


# -- JSON interchange ----------------------------------------------------------


def env_to_dict(env: BanditEnv) -> dict:
    if not env.confounded and env.confounder_states == ("",):
        return {"arms": env.arms, "payout": list(env.payout[""])}
    payload = {
        "arms": env.arms,
        "confounder": {
            "states": list(env.confounder_states),
            "probs": list(env.confounder_probs),
        },
        "payout": {s: list(env.payout[s]) for s in env.confounder_states},
    }
    if env.intuition is not None:
        payload["intuition"] = {s: env.intuition[s] for s in env.confounder_states}
    return payload


def env_from_dict(payload: dict) -> BanditEnv:
    payout = payload["payout"]
    if isinstance(payout, list):
        env = BanditEnv(payout={"": tuple(payout)})
    else:
        conf = payload["confounder"]
        env = BanditEnv(
            payout={s: tuple(v) for s, v in payout.items()},
            confounder_states=tuple(conf["states"]),
            confounder_probs=tuple(conf["probs"]),
            intuition=payload.get("intuition"),
        )
    if "arms" in payload and payload["arms"] != env.arms:
        raise SchemaMismatch(
            f"declared {payload['arms']} arms but payout rows have {env.arms}"
        )
    return env
