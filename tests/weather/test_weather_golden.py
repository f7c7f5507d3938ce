"""Synthetic weather against its committed digests.

``tests/golden/weather.json`` pins the sha256 of the ``temp_out_c`` and
``ghi_w_m2`` bytes of :func:`repro.weather.synthetic.generate_weather`
over a grid of climates, latitudes (incl. polar night), start days
(incl. a year wrap), lengths and sampling periods.  Any change to the
generator's arithmetic or RNG consumption shows here as a digest
mismatch; regenerate with ``tools/make_golden_weather.py`` only when
the change is intentional.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_golden_weather",
    Path(__file__).resolve().parents[2] / "tools" / "make_golden_weather.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

CASES = json.loads(golden.FIXTURE_PATH.read_text())["cases"]
PARAMS = ("config", "latitude_deg", "start_day_of_year", "n_days", "dt_seconds", "seed")


def _case_id(case: dict) -> str:
    return "{config}-lat{latitude_deg:g}-d{start_day_of_year}-{n_days:g}d-dt{dt_seconds:g}".format(
        **case
    )


def test_fixture_covers_the_grid():
    assert [{k: case[k] for k in PARAMS} for case in CASES] == golden.grid()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_generator_matches_digest(case):
    assert golden.compute_record({k: case[k] for k in PARAMS}) == case
