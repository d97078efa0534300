"""Slow reference route for the bandit simulator, kept to cross-check it.

This is the per-round loop the library ran before its scalar-draw rewrite:
Thompson steps draw every arm at once through the array form of
`rng.beta` and play `np.argmax`; the confounder state is drawn with
`rng.choice(k, p=probs)`; posteriors are frozen `BetaPosterior` values
replaced on every update; every round is recorded as a `Round`; every
payout goes through the validating `BanditEnv` accessors. The library
consumes the same PCG64 stream by scalar draws, so the two must return
byte-identical logs for every environment, policy and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from causalkit import (
    BanditEnv,
    MissingIntent,
    Round,
    RunResult,
    UnknownArm,
)


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


def thompson_step(
    posteriors: Sequence[BetaPosterior], rng: np.random.Generator
) -> int:
    alphas = np.array([p.alpha for p in posteriors])
    betas = np.array([p.beta for p in posteriors])
    return int(np.argmax(rng.beta(alphas, betas)))


class Thompson:
    name = "thompson"

    def reset(self, env):
        self.posteriors = [BetaPosterior() for _ in range(env.arms)]

    def choose(self, rng, intent=None, state=None):
        return thompson_step(self.posteriors, rng)

    def observe(self, arm, reward, intent=None):
        self.posteriors[arm] = self.posteriors[arm].update(reward)


class CausalThompson:
    name = "causal_thompson"

    def reset(self, env):
        self.arms = env.arms
        self.posteriors = {}

    def choose(self, rng, intent=None, state=None):
        if intent is None:
            raise MissingIntent("no intent")
        conditioned = [
            self.posteriors.get((intent, a), BetaPosterior()) for a in range(self.arms)
        ]
        return thompson_step(conditioned, rng)

    def observe(self, arm, reward, intent=None):
        key = (intent, arm)
        self.posteriors[key] = self.posteriors.get(key, BetaPosterior()).update(reward)


class EpsilonGreedy:
    def __init__(self, epsilon):
        self.epsilon = epsilon
        self.name = "greedy" if epsilon == 0.0 else "epsilon"

    def reset(self, env):
        self.pulls = [0] * env.arms
        self.wins = [0] * env.arms

    def choose(self, rng, intent=None, state=None):
        estimates = [w / c if c else 0.0 for w, c in zip(self.wins, self.pulls)]
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return int(rng.integers(len(estimates)))
        return int(np.argmax(estimates))

    def observe(self, arm, reward, intent=None):
        self.pulls[arm] += 1
        self.wins[arm] += reward


class Uniform:
    name = "uniform"

    def reset(self, env):
        self.arms = env.arms

    def choose(self, rng, intent=None, state=None):
        return int(rng.integers(self.arms))

    def observe(self, arm, reward, intent=None):
        pass


class Oracle:
    name = "oracle"

    def reset(self, env):
        self.env = env

    def choose(self, rng, intent=None, state=None):
        return int(np.argmax(self.env.payout[state]))

    def observe(self, arm, reward, intent=None):
        pass


def make_policy(name: str, epsilon: float = 0.1):
    if name == "greedy":
        return EpsilonGreedy(0.0)
    if name == "epsilon":
        return EpsilonGreedy(epsilon)
    return {
        "thompson": Thompson,
        "causal_thompson": CausalThompson,
        "uniform": Uniform,
        "oracle": Oracle,
    }[name]()


def simulate(
    env: BanditEnv,
    policy,
    horizon: int,
    seed: int,
    regret_benchmark: str = "conditional",
) -> RunResult:
    rng = np.random.default_rng(seed)
    policy.reset(env)

    states = env.confounder_states
    probs = np.asarray(env.confounder_probs)
    marginal_best = max(env.marginal_expected(a) for a in range(env.arms))

    rounds: list[Round] = []
    cum: list[float] = []
    regret = 0.0
    for _ in range(horizon):
        s_idx = int(rng.choice(len(states), p=probs)) if len(states) > 1 else 0
        state = states[s_idx]
        intent = env.intuition[state] if env.intuition is not None else None
        arm = policy.choose(rng, intent=intent, state=state)
        if not 0 <= arm < env.arms:
            raise UnknownArm(arm, env.arms)
        reward = int(rng.random() < env.expected(state, arm))
        policy.observe(arm, reward, intent=intent)
        if regret_benchmark == "conditional":
            regret += env.best_expected(state) - env.expected(state, arm)
        else:
            regret += marginal_best - env.expected(state, arm)
        rounds.append(Round(arm=arm, reward=reward, intent=intent))
        cum.append(regret)
    return RunResult(policy=policy.name, rounds=tuple(rounds), cum_regret=tuple(cum))
