import numpy as np
import pytest

from ruinvest.model import (ExponentialClaims, GeneralClaims, ModelParams, ValidationReport,
                            convex_start_condition, regime_constants, validate)


def test_example1_validates(example1, exp_law):
    rep = validate(example1, exp_law)
    assert rep.ok
    assert rep.violations == []
    assert rep.convex_start is True


def test_b_zero_rejected(exp_law):
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=0.0)
    rep = validate(p, exp_law)
    assert not rep.ok
    assert any("b" in v for v in rep.violations)


def test_sigma_zero_rejected(exp_law):
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.0, a=1.0, b=20.0)
    rep = validate(p, exp_law)
    assert not rep.ok
    assert any("sigma" in v for v in rep.violations)


def test_r_zero_needs_oracle_mode(exp_law):
    p = ModelParams(c=0.2, lam=0.09, mu=0.0, r=0.0, sigma=0.1, a=1.0, b=1.0)
    assert not validate(p, exp_law).ok
    assert validate(p, exp_law, oracle_mode=True).ok


def test_bad_density_normalisation_rejected(example1):
    law = GeneralClaims(pdf=lambda s: 0.5 * np.exp(-s), cdf=lambda s: 0.5 * (1 - np.exp(-s)),
                        mean=1.0)
    rep = validate(example1, law)
    assert not rep.ok
    assert any("integrates" in v for v in rep.violations)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_nan_density_integral_rejected(example1):
    # NaN beyond s = 5 makes quad's integral NaN, which is no unit mass
    law = GeneralClaims(pdf=lambda s: np.where(s < 5.0, np.exp(-s), np.nan),
                        cdf=lambda s: 1 - np.exp(-s), mean=1.0)
    rep = validate(example1, law)
    assert not rep.ok
    assert any("integrates to nan" in v for v in rep.violations)


class _QuadExponential(ExponentialClaims):
    """The built-in density under another type, so validate integrates it."""


def test_exponential_unit_mass_skip_matches_quad(example1):
    # on [1e-3, 1e4] validate takes quad's verdict on the exponential density
    # as known; the subclass shows what quad says
    for m in np.geomspace(1e-3, 1e4, 281):
        assert validate(example1, ExponentialClaims(m)) == validate(example1, _QuadExponential(m))
        assert validate(example1, ExponentialClaims(m)).ok


# outside [1e-3, 1e4] quad still runs; reports as before the skip existed
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("m, violations, convex", [
    (1e-5, ["claim density integrates to 0.00000000, not 1 within 1e-6"], None),
    (6e4, [], True),
    (1e6, ["claim density integrates to -0.00000100, not 1 within 1e-6"], None),
])
def test_exponential_outside_skip_range_keeps_quad_report(example1, m, violations, convex):
    rep = validate(example1, ExponentialClaims(m))
    assert rep == ValidationReport(ok=not violations, violations=violations, convex_start=convex)


def test_regime_constants_example1(example1):
    rc = regime_constants(example1, 1.0)
    assert rc.mu_bar == pytest.approx(0.02)
    assert rc.sigma_bar == pytest.approx(0.1)
    rc = regime_constants(example1, -20.0)
    assert rc.mu_bar == pytest.approx(-20 * 0.02 + 21 * 0.015)  # -0.085
    assert rc.mu_bar == pytest.approx(-0.085)
    assert rc.sigma_bar == pytest.approx(2.0)


def test_regime_constants_example2(example2):
    rc = regime_constants(example2, 20.0)
    assert rc.mu_bar == pytest.approx(20 * 0.02 + (1 - 20) * 0.025)  # -0.075
    assert rc.mu_bar == pytest.approx(-0.075)
    assert rc.sigma_bar == pytest.approx(2.0)


def test_regime_constants_rejects_other_fractions(example1):
    with pytest.raises(ValueError):
        regime_constants(example1, 0.5)


def test_drift_identity_random_params():
    # mu_bar(a) - mu_bar(-b) = (a + b)(mu - r) for any parameter set
    rng = np.random.default_rng(7)
    for _ in range(200):
        c, lam, sigma = rng.uniform(0.01, 1.0, 3)
        mu, r = rng.uniform(-0.05, 0.1), rng.uniform(0.001, 0.1)
        a, b = rng.uniform(0.1, 30.0, 2)
        p = ModelParams(c=c, lam=lam, mu=mu, r=r, sigma=sigma, a=a, b=b)
        lhs = regime_constants(p, a).mu_bar - regime_constants(p, -b).mu_bar
        assert lhs == pytest.approx((a + b) * (mu - r), rel=1e-12, abs=1e-15)


def test_convex_start_condition_example1(example1):
    # 1*(0.02 - 0.09) + 0.02 = -0.05 < 0
    assert convex_start_condition(example1, 1.0) is True


def test_convex_start_condition_large_premium(example1):
    # c = 0.1 flips the sign: 1*(-0.07) + 0.1 = 0.03 > 0
    p = ModelParams(c=0.1, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
    assert convex_start_condition(p, 1.0) is False


def test_convex_start_condition_vanishing_bracket():
    # lambda equal to the regime drift makes the bracket zero; any c > 0 fails
    p = ModelParams(c=0.01, lam=0.02, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
    # a*mu + (1-a)*r = 0.02 = lambda
    assert convex_start_condition(p, 1.0) is False


def test_exponential_law_basics():
    law = ExponentialClaims(2.0)
    s = np.linspace(0.0, 10.0, 11)
    assert np.allclose(law.pdf(s), np.exp(-s / 2) / 2)
    assert np.allclose(law.cdf(s), 1 - np.exp(-s / 2))
    assert law.density_at_zero == pytest.approx(0.5)
    assert law.pdf_derivative(0.0) == pytest.approx(-0.25)


def test_general_claims_inverse_transform_sampler():
    # without an explicit sampler, draws come from bisection on the cdf
    law = GeneralClaims(pdf=lambda s: np.exp(-s), cdf=lambda s: 1 - np.exp(-s), mean=1.0)
    rng = np.random.default_rng(3)
    draws = law.sample(rng, 20_000)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(1.0, abs=0.03)


@pytest.mark.parametrize("law", ["exponential", "bisection"])
def test_sample_draws_element_by_element(law, erlang_law):
    # calls of sizes a and then b return one call of size a + b, bit for bit:
    # the simulator's claim tables draw in row blocks and rely on it
    law = ExponentialClaims(2.0) if law == "exponential" else erlang_law
    whole = law.sample(np.random.default_rng(21), 1_000)
    rng = np.random.default_rng(21)
    parts = [law.sample(rng, k) for k in (1, 0, 376, 623)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_mixture_law_mean(mixture_law):
    rng = np.random.default_rng(5)
    draws = mixture_law.sample(rng, 40_000)
    assert draws.mean() == pytest.approx(1.5, abs=0.05)


def test_numerical_pdf_derivative_step_is_per_element(erlang_law):
    # the fallback's difference step must not depend on the rest of the batch,
    # or a tabulated f' differs from the per-node value
    batch = erlang_law.pdf_derivative(np.array([0.5, 40.0]))
    assert batch[0] == erlang_law.pdf_derivative(0.5)
    assert batch[1] == erlang_law.pdf_derivative(40.0)
    assert batch[0] == pytest.approx(4.0 * np.exp(-1.0) * (1.0 - 2.0 * 0.5), abs=1e-9)


def test_numerical_pdf_derivative_calls_pdf_three_times():
    # f(s + eps) feeds both the central and the one-sided quotient; it is
    # evaluated once, and the result is the two quotients' formula bit for bit
    def f(s):
        return np.where(s >= 0, 4.0 * s * np.exp(-2.0 * s), 0.0)
    calls = []
    law = GeneralClaims(pdf=lambda s: calls.append(np.size(s)) or f(s),
                        cdf=lambda s: 1.0 - np.exp(-2.0 * s) * (1.0 + 2.0 * s), mean=1.0)
    s = np.array([0.0, 5e-7, 1e-6, 0.5, 40.0])
    got = law.pdf_derivative(s)
    assert calls == [s.size] * 3
    eps = 1e-6 * np.maximum(1.0, s)
    want = np.where(s - eps >= 0, (f(s + eps) - f(s - eps)) / (2 * eps),
                    (f(s + eps) - f(s)) / eps)
    assert np.array_equal(got, want)
