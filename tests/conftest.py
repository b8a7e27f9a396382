import numpy as np
import pytest

from helios.harmonics import CoefficientSpectrum, SphereGrid
from helios.specfun import hankel_table, hankel_value


@pytest.fixture(scope="session")
def grid20():
    return SphereGrid.build(20)


@pytest.fixture(scope="session")
def grid30():
    return SphereGrid.build(30)


def random_spectrum(max_degree: int, seed: int) -> CoefficientSpectrum:
    rng = np.random.default_rng(seed)
    spec = CoefficientSpectrum(max_degree)
    for n in range(max_degree + 1):
        for m in range(-n, n + 1):
            spec[n, m] = complex(rng.standard_normal(), rng.standard_normal())
    return spec


def relative_table_error(n_max: int, ts) -> float:
    """Largest relative error of hankel_table's values and derivatives
    against the finite sum, over orders 0..n_max and arguments ts."""
    values, derivatives = hankel_table(n_max, ts)
    worst = 0.0
    for n in range(n_max + 1):
        for j, t in enumerate(ts):
            h = hankel_value(n, float(t))
            worst = max(
                worst,
                abs(values[n, j] - h.value) / abs(h.value),
                abs(derivatives[n, j] - h.derivative) / abs(h.derivative),
            )
    return worst
