"""Parameter handling, units, estimates and RNG streams."""

import dataclasses
import math

import numpy as np
import pytest

from linecox.core import (
    AlphaOutOfRange,
    Estimate,
    NegativeSpeed,
    NetworkParams,
    NonPositiveDensity,
    ParameterError,
    UnitParseError,
    convert_units,
    params_digest,
    substream,
)

V = 30.0 / 3600.0  # 30 km/h in km/s


def make_params(**kw):
    base = dict(lambda_l=3.0, mu=3.0, nu=0.1, speed=V)
    base.update(kw)
    return NetworkParams(**base)


class TestUnits:
    def test_speed_string_km_h(self):
        assert convert_units("30 km/h", "speed") == pytest.approx(V)

    def test_speed_string_m_s(self):
        assert convert_units("8.5 m/s", "speed") == pytest.approx(8.5e-3)

    def test_bare_speed_reads_as_km_h(self):
        # config files quote speeds in km/h; canonical storage is km/s
        assert convert_units(30.0, "speed") == pytest.approx(V)
        assert convert_units("30", "speed") == pytest.approx(V)

    def test_length_metres(self):
        assert convert_units("100 m", "nu") == pytest.approx(0.1)

    def test_density_per_km(self):
        assert convert_units("5 /km", "lambda_l") == 5.0
        assert convert_units(5, "mu") == 5.0

    def test_plain_fields_pass_through(self):
        assert convert_units(3.5, "alpha") == 3.5
        assert convert_units("0.01", "power") == 0.01

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitParseError):
            convert_units("30 mph", "speed")
        with pytest.raises(UnitParseError):
            convert_units("1 parsec", "nu")

    def test_garbage_rejected(self):
        with pytest.raises(UnitParseError):
            convert_units("fast", "speed")

    def test_negative_speed_rejected(self):
        with pytest.raises(NegativeSpeed):
            convert_units("-3 km/h", "speed")


class TestValidation:
    def test_valid_params_returned_unchanged(self):
        p = make_params(power=0.7, alpha=3.5)
        assert dataclasses.astuple(p) == (3.0, 3.0, 0.1, V, 0.7, 3.5)

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ParameterError) as exc:
            make_params(lambda_l=-1.0, mu=0.0)
        fields = {f for f, _ in exc.value.violations}
        assert {"lambda_l", "mu"} <= fields

    def test_alpha_at_two_rejected(self):
        with pytest.raises(AlphaOutOfRange) as exc:
            make_params(alpha=2.0)
        assert "alpha" in str(exc.value)

    def test_alpha_below_two_rejected(self):
        with pytest.raises(AlphaOutOfRange):
            make_params(alpha=1.5)

    def test_zero_speed_is_legal(self):
        # latency quantities reject it separately; the snapshot model is fine
        assert make_params(speed=0.0).speed == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ParameterError):
            make_params(speed=-1.0)

    def test_checked_on_construction(self):
        # every way of making a parameter set runs the checks, so no caller checks again
        with pytest.raises(NonPositiveDensity, match="mu"):
            NetworkParams(3.0, -1.0, 0.1, 0.01)
        with pytest.raises(AlphaOutOfRange, match="alpha"):
            dataclasses.replace(make_params(), alpha=2.0)
        with pytest.raises(ParameterError):
            make_params().scaled(-1.0)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.mu = 4.0

    def test_scaled_map(self):
        p = make_params(power=0.7, alpha=3.5)
        q = p.scaled(2.0)
        assert q.lambda_l == p.lambda_l / 2
        assert q.mu == p.mu / 2
        assert q.nu == p.nu * 2
        assert q.speed == p.speed * 2
        assert q.power == p.power and q.alpha == p.alpha

    def test_scaled_round_trip(self):
        p = make_params()
        q = p.scaled(2.0).scaled(0.5)
        assert q == p


class TestEstimate:
    def test_from_samples_known_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        est = Estimate.from_samples(x)
        assert est.value == pytest.approx(2.5)
        # ddof=1 sample std / sqrt(n)
        assert est.std_error == pytest.approx(np.std(x, ddof=1) / 2.0)
        assert est.n_samples == 4

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            Estimate.from_samples(np.array([1.0]))

    # sizes on both sides of numpy's 8192-item buffer; columns of a (n, 3) array
    # are strided, as the estimators' hit[:, g] are
    @pytest.mark.parametrize("n", [100, 8191, 8192, 8193, 50_000, 1_230_001])
    @pytest.mark.parametrize("p", [0.001, 0.3, 0.97])
    def test_bool_samples_match_their_float_copy(self, n, p):
        hits = np.random.default_rng(n).random((n, 3)) < p
        for samples in (hits[:, 0].copy(), hits[:, 1]):
            assert Estimate.from_samples(samples) == Estimate.from_samples(
                samples.astype(float))

    def test_z_score(self):
        est = Estimate(1.2, 0.1, 50)
        assert est.z_score(1.0) == pytest.approx(2.0)
        assert Estimate(1.0, 0.0, 50).z_score(1.0) == 0.0
        assert Estimate(1.0, 0.0, 50).z_score(0.5) == math.inf

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            Estimate(math.nan, 0.1, 10)
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            Estimate(1.0, 0.1, 0)


class TestSubstream:
    def test_same_key_same_draws(self):
        a = substream(42, 3, 1, 0).uniform(size=5)
        b = substream(42, 3, 1, 0).uniform(size=5)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_draws(self):
        a = substream(42, 3, 1, 0).uniform(size=5)
        b = substream(42, 3, 1, 1).uniform(size=5)
        c = substream(43, 3, 1, 0).uniform(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_order_matters(self):
        a = substream(7, 1, 2).uniform(size=4)
        b = substream(7, 2, 1).uniform(size=4)
        assert not np.array_equal(a, b)

    def test_streams_do_not_interact(self):
        # drawing from one stream never perturbs another
        a = substream(9, 0)
        b = substream(9, 1)
        b.uniform(size=1000)
        a2 = substream(9, 0)
        assert np.array_equal(a.uniform(size=5), a2.uniform(size=5))


class TestDigest:
    def test_stable(self):
        p = make_params()
        assert params_digest(p) == params_digest(make_params())

    def test_sensitive_to_every_field(self):
        base = params_digest(make_params())
        assert params_digest(make_params(mu=3.1)) != base
        assert params_digest(make_params(power=0.5)) != base
        assert params_digest(make_params(alpha=4.0)) != base

    def test_pinned_value(self):
        # every CSV's params_hash column depends on this exact value
        assert params_digest(NetworkParams(3.0, 3.0, 0.1, 30 / 3600)) == "f247fbcc9e97"
