"""Shared fixtures for the test suite."""

from __future__ import annotations

import builtins

import numpy as np
import pytest

from repro.engine import ResultCache
from repro.tensor import Tensor


_builtin_sum = builtins.sum


def _integer_sum(values, /, start=0):
    values = list(values)
    if isinstance(start, float) or any(isinstance(value, float)
                                       for value in values):
        raise TypeError("builtin sum() over floats compensates rounding from "
                        "Python 3.12 on; fold floats with "
                        "repro.fold.left_sum")
    return _builtin_sum(values, start)


@pytest.fixture
def no_float_sum(monkeypatch):
    """Builtin ``sum()`` refuses float operands while the test runs.

    From Python 3.12 ``sum()`` compensates float rounding, so a float total
    taken with it changes the bit-exact goldens on 3.12 alone.  The golden
    tests use this fixture, so such a total fails them on every interpreter.
    """

    monkeypatch.setattr(builtins, "sum", _integer_sum)


class EngineCalls:
    """The specs a run passes to ``resolve`` and to ``ResultCache.get_or_run``,
    in call order (``watch(module)`` records that module's ``resolve``)."""

    def __init__(self, monkeypatch):
        self.resolved: list = []
        self.lookups: list = []
        self._monkeypatch = monkeypatch
        get_or_run = ResultCache.get_or_run

        def recording_get_or_run(cache, spec, runner):
            self.lookups.append(spec)
            return get_or_run(cache, spec, runner)

        monkeypatch.setattr(ResultCache, "get_or_run", recording_get_or_run)

    def watch(self, module) -> None:
        resolve = module.resolve

        def recording_resolve(spec):
            self.resolved.append(spec)
            return resolve(spec)

        self._monkeypatch.setattr(module, "resolve", recording_resolve)

    def clear(self) -> None:
        self.resolved.clear()
        self.lookups.clear()


@pytest.fixture
def engine_calls(monkeypatch) -> EngineCalls:
    return EngineCalls(monkeypatch)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def qkv_small(rng):
    """Small (batch, heads, tokens, head_dim) Q/K/V arrays in the weak regime."""

    shape = (2, 3, 12, 8)
    q = rng.normal(size=shape) * 0.3
    k = rng.normal(size=shape) * 0.3
    v = rng.normal(size=shape)
    return q, k, v


@pytest.fixture
def qkv_tensors(qkv_small):
    q, k, v = qkv_small
    return Tensor(q), Tensor(k), Tensor(v)


def numeric_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of one array."""

    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return gradient
