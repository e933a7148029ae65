import json
from fractions import Fraction

import numpy as np
import pytest

from lubelastic import cli, scaling
from lubelastic.errors import ParameterError, RegimeError, UsageError


class TestTimeScaleExponent:
    """tau = kappa - 3, derived by ModelParams when tau is not given."""

    @pytest.mark.parametrize("kappa,tau", [(3, 0), (1, -2), (2, -1)])
    def test_values_exact(self, kappa, tau):
        t = scaling.ModelParams(kappa=kappa, eps=0.125).tau
        assert t == Fraction(tau) and isinstance(t, Fraction)

    def test_affine(self):
        ks = [Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(7, 2), Fraction(10)]
        for k1 in ks:
            for k2 in ks:
                assert (scaling.ModelParams(kappa=k1, eps=0.125).tau
                        - scaling.ModelParams(kappa=k2, eps=0.125).tau) == k1 - k2

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ParameterError):
            scaling.ModelParams(kappa=0, eps=0.125)
        with pytest.raises(ParameterError):
            scaling.ModelParams(kappa=-1.5, eps=0.125)


class TestRegimeValidation:
    def test_boundary_passes(self):
        assert scaling.validate_theorem_regime(2.5).ok

    def test_above_boundary_fails_with_reason(self):
        check = scaling.validate_theorem_regime(3)
        assert not check.ok
        assert "5/2" in check.reason

    def test_interior_passes(self):
        assert scaling.validate_theorem_regime(0.1).ok

    def test_nonpositive_raises(self):
        with pytest.raises(RegimeError):
            scaling.validate_theorem_regime(0)


class TestCoefficients:
    def test_bending_coefficient(self):
        assert scaling.reduced_coefficient_e0(1.0, 1.0) == 1.0 / 12.0
        assert scaling.reduced_coefficient_e0(12.0, 1.0) == 1.0
        assert scaling.reduced_coefficient_e0(3.0, 0.25) == 1.0

    def test_bending_coefficient_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            scaling.reduced_coefficient_e0(0.0, 1.0)
        with pytest.raises(ParameterError):
            scaling.reduced_coefficient_e0(1.0, -1.0)

    def test_layer_coefficient(self):
        assert scaling.reduced_coefficient_eh(scaling.LameParams(1.0, 1.0), 1.0) == 4.0 / 27.0
        assert scaling.reduced_coefficient_eh(scaling.LameParams(1.0, 0.0), 1.0) == 1.0 / 9.0

    def test_layer_coefficient_off_unit_shear_modulus(self):
        # 2 mu (mu + lam) / (9 nu (2 mu + lam)) at mu = 2, lam = 3, nu = 1/2
        val = scaling.reduced_coefficient_eh(scaling.LameParams(2.0, 3.0), 0.5)
        assert val == pytest.approx(20.0 / 31.5, rel=1e-15)

    def test_layer_coefficient_incompressible_limit(self):
        # symbolic limit lam -> inf is 2 mu / (9 nu)
        val = scaling.reduced_coefficient_eh(scaling.LameParams(1.0, 1e6), 1.0)
        assert abs(val - 2.0 / 9.0) < 1e-5

    def test_layer_coefficient_monotone_in_lambda(self):
        lams = np.linspace(0.0, 50.0, 40)
        vals = [scaling.reduced_coefficient_eh(scaling.LameParams(1.3, la), 0.7)
                for la in lams]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 7.0])
    def test_both_maps_homogeneous_in_viscosity(self, a):
        assert scaling.reduced_coefficient_e0(2.0, a * 1.5) == pytest.approx(
            scaling.reduced_coefficient_e0(2.0, 1.5) / a, rel=1e-14)
        lame = scaling.LameParams(2.0, 3.0)
        assert scaling.reduced_coefficient_eh(lame, a * 1.5) == pytest.approx(
            scaling.reduced_coefficient_eh(lame, 1.5) / a, rel=1e-14)

    def test_lame_validation(self):
        with pytest.raises(ParameterError):
            scaling.LameParams(0.0, 1.0)
        with pytest.raises(ParameterError):
            scaling.LameParams(1.0, -0.1)


class TestModelParams:
    def test_tau_defaults_to_coupled_regime(self):
        p = scaling.ModelParams(eps=0.25, kappa=2)
        assert p.tau == Fraction(-1)

    def test_eps_range_enforced(self):
        with pytest.raises(ParameterError):
            scaling.ModelParams(kappa=2, eps=1.0)
        with pytest.raises(ParameterError):
            scaling.ModelParams(kappa=2, eps=0.0)

    def test_json_round_trip(self):
        doc = {"rho_f": 2.0, "nu": 0.5, "B": 3.0, "eps": 0.0625,
               "kappa": "5/2", "dim": 2}
        p = cli.decode(scaling.ModelParams, json.loads(json.dumps(doc)))
        assert p.kappa == Fraction(5, 2)
        assert p.tau == Fraction(-1, 2)
        assert p.dim == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown.*rigidity"):
            cli.decode(scaling.ModelParams, json.loads('{"eps": 0.5, "rigidity": 1.0}'))

    def test_eps_power_exact_for_powers_of_two(self):
        assert scaling.eps_power(2.0**-4, Fraction(-3)) == 2.0**12
        assert scaling.eps_power(0.125, Fraction(1, 2)) == 2.0 ** (-1.5)

    def test_eps_power_off_powers_of_two(self):
        assert scaling.eps_power(0.3, 2) == 0.3**2.0
        assert scaling.eps_power(0.3, Fraction(-1, 2)) == 0.3**-0.5


class TestNonlinearScalingPreset:
    def test_coefficient_map(self):
        preset = scaling.NonlinearScalingPreset(eps=0.1, B_hat=2.0, D_hat=3.0, rho_s_hat=4.0)
        co = preset.coefficients()
        assert co["B"] == pytest.approx(20.0)
        assert co["D"] == pytest.approx(300.0)
        assert co["rho_s"] == pytest.approx(40.0)
        assert co["time_scale"] == pytest.approx(100.0)

    def test_positivity_enforced(self):
        with pytest.raises(ParameterError):
            scaling.NonlinearScalingPreset(eps=0.1, B_hat=0.0, D_hat=1.0, rho_s_hat=1.0)
