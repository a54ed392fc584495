"""Shared fixtures: the full-length reference runs.

The sweep and baseline fixtures are session-scoped because each one holds
four (or one) complete 120 s simulations at the default 400-cell grid;
they are shared across the acceptance tests.
"""

import pytest

from lwrvsl import (
    REFERENCE_Q0_VALUES,
    reference_scenario,
    run_simulation,
    sweep_q0,
)


def _reference_sweep(model):
    members, failures = sweep_q0(reference_scenario(model=model), list(REFERENCE_Q0_VALUES))
    assert failures == {}
    return members


@pytest.fixture(scope="session")
def linear_sweep():
    return _reference_sweep("linear")


@pytest.fixture(scope="session")
def nonlinear_sweep():
    return _reference_sweep("nonlinear")


@pytest.fixture(scope="session")
def linear_baseline():
    return run_simulation(reference_scenario(model="linear", control_enabled=False))


@pytest.fixture(scope="session")
def nonlinear_baseline():
    return run_simulation(reference_scenario(model="nonlinear", control_enabled=False))
