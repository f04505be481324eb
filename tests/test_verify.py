"""The verify checks fail on wrong code.

Each mutant below is a plausible slip in the code a check covers; the
check must report it, so a check cannot pass by comparing the code with
itself.
"""

import dataclasses

import numpy as np
import pytest

from spqm import group, paths, verify

_hc_to_cartan = group.hc_to_cartan


def _ell_scaled(x):
    y = _hc_to_cartan(x)
    return dataclasses.replace(y, ell=y.ell * (1 + 1e-3))


def _xi_flipped(x):
    y = _hc_to_cartan(x)
    return dataclasses.replace(y, phi=x.psi + group.gauge_functions(x).xi)


def _beta_alpha_swapped(x):
    y = _hc_to_cartan(x)
    return dataclasses.replace(y, beta=y.alpha, alpha=y.beta)


@pytest.mark.parametrize("mutant", [_ell_scaled, _xi_flipped,
                                    _beta_alpha_swapped])
def test_cartan_check_fails_on_wrong_transform(monkeypatch, mutant):
    monkeypatch.setattr(group, "hc_to_cartan", mutant)
    assert verify.run_check(6).passed is False


def _kraus_centre_off_by_eps(path, dim):
    # kraus_time_ordered with kappa_c + eps in the composed centre.
    eps = 2 * path.kappa * path.dt
    g = -np.expm1(-eps) / eps
    x = paths.closed_form_hc(path)
    total = path.kappa * np.sum(np.abs(path.increments) ** 2)
    z = g * g * x.z + (paths._kraus_centre(eps) + eps - g * g / 2) * total
    return group.represent(group.HCCoords(nu=g * x.nu, r=x.r, z=z,
                                          mu=g * x.mu), dim)


def test_kraus_check_fails_on_wrong_centre(monkeypatch):
    monkeypatch.setattr(paths, "kraus_time_ordered", _kraus_centre_off_by_eps)
    assert verify.run_check(15).passed is False
