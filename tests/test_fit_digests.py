"""The calibration fit's floats, pinned: one digest per fitted platform.

A digest covers the fitted definition (``PlatformDef.to_dict()``) and the
whole fit report (``FitReport.to_json()``: every parameter, residual,
verdict, IRLS uncertainty and warning).  A clean fit runs the clean
estimators; a ``noisy-sysfs`` fit of the same capture runs the robust ones
(alignment, Hampel, IRLS leakage, windowed energy-balance RC).  One phone
and one Odroid cover both thermal topologies.

The digests were recorded before the robust stages were rewritten as
array passes; the rewrite had to keep every one of them.
"""

import hashlib
import json

import pytest

from repro.calib import BUILTIN_MODELS, fit_platform, run_excitation

DEGRADE_SEED = 7

DIGESTS = {
    ("nexus6p", "clean"): (
        "be32c8579b2bd76644734a87b373354f"
        "985dd95c432e9715ca4380afc0ecff27"
    ),
    ("nexus6p", "noisy-sysfs"): (
        "909ae6b1226ff020a62c3897764f648d"
        "9b05872e372d8a04c493beb22bfbf26d"
    ),
    ("odroid-xu3", "clean"): (
        "123306a58a015ec21c352f7803d994ea"
        "829ba2d03a7c00c9cff5c31613116fe3"
    ),
    ("odroid-xu3", "noisy-sysfs"): (
        "cd2ebbb4010b2c87a78088ee8d553cda"
        "0d39326e99f6f3a347243afd9f008a8f"
    ),
}


@pytest.fixture(scope="module", params=["nexus6p", "odroid-xu3"])
def excited(request):
    return request.param, run_excitation(request.param, seed=1)


def _digest(pdef, report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(pdef.to_dict(), sort_keys=True).encode())
    h.update(report.to_json().encode())
    return h.hexdigest()


@pytest.mark.parametrize("capture", ["clean", "noisy-sysfs"])
def test_fit_digest(excited, capture):
    name, trace = excited
    if capture != "clean":
        trace = BUILTIN_MODELS[capture].apply(trace, seed=DEGRADE_SEED)
    pdef, report = fit_platform(trace)
    assert _digest(pdef, report) == DIGESTS[(name, capture)]
