"""The alive filters' variance against its finite-state asymptotic value.

Every other oracle checks a mean.  Here (N - 1) Var(log Z_hat), measured
over independent runs, must lie within 3 standard errors of the value
``helpers.discrete_alive_variance_terms`` computes from the instance's
emission, transition and kernel table: NB + sel for plain ``alive_filter``,
and sel alone for ``alive_twisted_filter`` with the constant twist, which
removes the stopping times' noise.  So a defect that leaves the mean right
but inflates the variance, such as selecting the next pool from part of the
accepted particles only, fails here.
"""

import numpy as np
import pytest

from alivetwist import alive_filter, alive_twisted_filter, constant_twist
from alivetwist.selftest import toy_discrete_instance

from helpers import discrete_alive_variance_terms, stream_for

N_PARTICLES = 100
RUNS = 400  # the standard error of each variance is then about 7% of it


def _scaled_variance(run):
    """(N - 1) Var(log Z_hat) over RUNS runs of ``run(stream)``, and its
    standard error from the sample's fourth central moment."""
    log_z = np.array([run(stream_for(1313, r)).log_total for r in range(RUNS)])
    squares = (log_z - log_z.mean()) ** 2
    scale = N_PARTICLES - 1
    return scale * squares.sum() / (RUNS - 1), scale * squares.std(ddof=1) / np.sqrt(RUNS)


@pytest.mark.parametrize("master_seed", [402, 904])
@pytest.mark.parametrize("algo", ["alive", "alive-twisted"])
def test_scaled_variance_matches_the_asymptotic_value(master_seed, algo):
    params, kernel, model, observations = toy_discrete_instance(master_seed, steps=20)
    nb, sel = discrete_alive_variance_terms(params, kernel, observations)
    if algo == "alive":
        predicted = nb + sel

        def run(stream):
            return alive_filter(model, kernel, observations, N_PARTICLES, stream=stream)[1]
    else:
        predicted = sel
        twist = constant_twist(observations.size, params)

        def run(stream):
            return alive_twisted_filter(model, kernel, twist, observations, N_PARTICLES,
                                        stream=stream)[1]

    measured, se = _scaled_variance(run)
    assert abs(measured - predicted) <= 3.0 * se, (measured, predicted, se)
