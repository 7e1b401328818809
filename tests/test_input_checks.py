"""Every public numerical entry point rejects a bad argument with ValueError.

A bad argument is NaN, +inf, -inf or a finite value outside the
argument's domain. Entry points that take arrays are also called with an
array holding one bad element next to a good one.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from circpc.distributions import (
    Dataset,
    DistributionSpec,
    circular_mean,
    log_pdf,
    pdf,
    resultant_length,
    wrap_angle,
)
from circpc.divergence import (
    distance,
    distance_deriv,
    inverse_distance,
    kld_cardioid,
    kld_vm,
    kld_wc,
    profile_for,
    supported_pairs,
)
from circpc.harness import PriorSpec, desk_study_config
from circpc.inference import McmcConfig
from circpc.pc_priors import (
    PcPrior,
    TailSpec,
    attainable_alpha_range,
    pc_cdf,
    pc_pdf,
    pc_quantile,
    q_transform,
)
from circpc.reference_priors import Beta, GammaOneB, VonMisesConjugate, distance_scale_pdf, overfit_audit, ref_pdf
from circpc.special import (
    bessel_i,
    bessel_ratio,
    bessel_ratio_deriv,
    log_bessel_i0,
    one_minus_bessel_ratio,
)

VM_SPEC = DistributionSpec("vm", 1.0, 2.0)
PC_VM = PcPrior("vm", "uniform", 1.5)
VMC = VonMisesConjugate(2.0, 1.0, 0.5)
VM_PM = profile_for("vm", "pointmass")


def _profile_entries():
    for pair in supported_pairs():
        prof = profile_for(*pair)
        tag = f"{pair[0].value}-{pair[1].value}"
        hi = prof.support_hi if math.isfinite(prof.support_hi) else -1.0
        d_out = 1.5 * prof.d_max if math.isfinite(prof.d_max) else -1.0
        good = 0.25 * min(prof.support_hi, 1.0)
        yield f"distance[{tag}]", lambda x, p=prof: distance(p, x), good, hi, True
        yield f"distance_deriv[{tag}]", lambda x, p=prof: distance_deriv(p, x), good, hi, True
        yield f"inverse_distance[{tag}]", lambda x, p=prof: inverse_distance(p, x), 0.3, d_out, True
        prior = PcPrior(prof.family, prof.base, 1.5)
        yield f"pc_pdf[{tag}]", lambda x, p=prior: pc_pdf(p, x), good, hi, True
        yield f"pc_cdf[{tag}]", lambda x, p=prior: pc_cdf(p, x), good, hi, True


# (name, call with the checked argument, a good value, an out-of-domain
# value or None where every finite value is good, whether arrays are taken)
ENTRY_POINTS = [
    ("bessel_i", lambda x: bessel_i(1, x), 1.0, -1.0, True),
    ("log_bessel_i0", log_bessel_i0, 1.0, -1.0, True),
    ("bessel_ratio", bessel_ratio, 1.0, -1.0, True),
    ("one_minus_bessel_ratio", one_minus_bessel_ratio, 1.0, -1.0, True),
    ("bessel_ratio_deriv", bessel_ratio_deriv, 1.0, -1.0, True),
    ("wrap_angle", wrap_angle, 1.0, None, True),
    ("circular_mean", circular_mean, 1.0, None, True),
    ("resultant_length", resultant_length, 1.0, None, True),
    ("Dataset", Dataset, 1.0, None, True),
    ("log_pdf", lambda x: log_pdf(VM_SPEC, x), 1.0, None, True),
    ("pdf", lambda x: pdf(VM_SPEC, x), 1.0, None, True),
    ("DistributionSpec.mu", lambda x: DistributionSpec("vm", x, 1.0), 1.0, None, False),
    ("DistributionSpec.vm", lambda x: DistributionSpec("vm", 0.0, x), 1.0, -1.0, False),
    ("DistributionSpec.cardioid", lambda x: DistributionSpec("cardioid", 0.0, x), 0.2, 0.5, False),
    ("DistributionSpec.wc", lambda x: DistributionSpec("wc", 0.0, x), 0.5, 1.0, False),
    ("kld_vm.kappa", lambda x: kld_vm(x, 1.0), 2.0, -1.0, True),
    ("kld_vm.kappa0", lambda x: kld_vm(1.0, x), 2.0, -1.0, True),
    ("kld_cardioid.ell", lambda x: kld_cardioid(x, 0.2), 0.1, 0.5, True),
    ("kld_cardioid.ell0", lambda x: kld_cardioid(0.2, x), 0.1, 0.5, True),
    ("kld_wc", kld_wc, 0.5, 1.0, True),
    *_profile_entries(),
    ("q_transform[vm]", lambda x: q_transform("vm", x), 1.0, -3.0, True),
    ("q_transform[cardioid]", lambda x: q_transform("cardioid", x), 0.2, 0.75, True),
    ("q_transform[wc]", lambda x: q_transform("wc", x), 0.5, 7.0, True),
    ("pc_quantile", lambda x: pc_quantile(PC_VM, x), 0.5, 1.0, True),
    ("PcPrior.lam", lambda x: PcPrior("vm", "uniform", x), 1.0, 0.0, False),
    ("TailSpec.U", lambda x: TailSpec(x, 0.5), 1.0, 0.0, False),
    ("TailSpec.alpha", lambda x: TailSpec(1.0, x), 0.5, 1.0, False),
    ("attainable_alpha_range", lambda x: attainable_alpha_range("vm", "uniform", x),
     1.0, 7.0, False),
    ("ref_pdf[gamma]", lambda x: ref_pdf(GammaOneB(1.0), x), 1.0, -1.0, True),
    ("ref_pdf[beta]", lambda x: ref_pdf(Beta(2.0, 3.0), x), 0.5, 1.0, True),
    ("VonMisesConjugate.pdf.mu", lambda x: VMC.pdf(x, 1.0), 1.0, None, True),
    ("VonMisesConjugate.pdf.kappa", lambda x: VMC.pdf(0.0, x), 1.0, -1.0, True),
    ("distance_scale_pdf", lambda x: distance_scale_pdf(GammaOneB(1.0), VM_PM, x), 0.5, 1.5, True),
]

CASES = [
    pytest.param(call, good, bad, id=f"{name}-{bad}-scalar") if form == "scalar"
    else pytest.param(call, [good, good], [good, bad], id=f"{name}-{bad}-array")
    for name, call, good, out, arrays in ENTRY_POINTS
    for bad in (math.nan, math.inf, -math.inf) + (() if out is None else (out,))
    for form in (("scalar", "array") if arrays else ("scalar",))
]


@pytest.mark.parametrize("call, good, bad", CASES)
def test_rejects_nonfinite_and_out_of_domain(call, good, bad):
    call(good)  # the same call is accepted with a good argument
    with pytest.raises(ValueError):
        call(bad)



def _desk_with(**changes):
    return replace(desk_study_config(), **changes)


# (the field the error names, a call with a value in that field, a good number)
NUMBER_FIELDS = [
    ("hypers", lambda x: PriorSpec("gamma", (x,)), 1),
    ("true_concentration_grid", lambda x: _desk_with(true_concentration_grid=(x, 3.0)), 1),
    ("mu_true", lambda x: _desk_with(mu_true=x), 1),
    ("U", lambda x: TailSpec(x, 0.5), 1),
    ("alpha", lambda x: TailSpec(1.0, x), 0.5),
    ("lambda", lambda x: PcPrior("vm", "uniform", x), 1),
    ("initial_mu", lambda x: McmcConfig(initial_mu=x), 1),
    ("initial_concentration", lambda x: McmcConfig(initial_concentration=x), 1),
    ("mu", lambda x: DistributionSpec("vm", x, 1.0), 1),
    ("concentration", lambda x: DistributionSpec("vm", 0.0, x), 1),
    ("d_cap", lambda x: overfit_audit(GammaOneB(1.0), VM_PM, grid_points=10, d_cap=x), 1),
]


@pytest.mark.parametrize("name, call, good", NUMBER_FIELDS, ids=[f[0] for f in NUMBER_FIELDS])
@pytest.mark.parametrize("flag", (True, np.True_), ids=("bool", "numpy-bool"))
def test_bool_is_not_a_number(name, call, good, flag):
    """A bool is not read as 0 or 1 where a number is asked for."""
    call(good)
    with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
        call(flag)


@pytest.mark.parametrize("name, call, good", NUMBER_FIELDS, ids=[f[0] for f in NUMBER_FIELDS])
@pytest.mark.parametrize("value", ("3", b"3", "abc", None, 1j, np.complex128(1.0)),
                         ids=("str", "bytes", "word", "none", "complex", "numpy-complex"))
def test_non_number_is_rejected(name, call, good, value):
    """A string, even one that spells a number, bytes, None and a complex
    raise a ValueError that names the field, not a TypeError or a float.
    McmcConfig's initial state takes None as its default."""
    call(good)
    if value is None and name in ("initial_mu", "initial_concentration"):
        call(value)
        return
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        call(value)
