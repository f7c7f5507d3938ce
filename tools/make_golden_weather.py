#!/usr/bin/env python
"""Regenerate the synthetic-weather digest fixture.

Writes ``tests/golden/weather.json``: the sha256 of the ``temp_out_c``
and ``ghi_w_m2`` bytes of :func:`repro.weather.synthetic.generate_weather`
over a grid of climates (summer/mild), latitudes (40, -33, 70 — the last
has polar night in winter), start days (1, 213, 360 — the last wraps the
year), lengths (0.5, 14, 365 days) and sampling periods (900 s, 3600 s).
Each record is self-describing, so ``tests/weather/test_weather_golden.py``
recomputes it without this script.  Run this ONLY when a generator change
is intentional — the diff of the fixture file is the reviewable record.

Usage::

    PYTHONPATH=src python tools/make_golden_weather.py            # rewrite
    PYTHONPATH=src python tools/make_golden_weather.py --check    # verify only
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO_ROOT / "tests" / "golden" / "weather.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.weather.synthetic import (  # noqa: E402  (path bootstrap above)
    generate_weather,
    mild_config,
    summer_config,
)

CONFIGS = {"summer": summer_config, "mild": mild_config}
LATITUDES = (40.0, -33.0, 70.0)
START_DAYS = (1, 213, 360)
N_DAYS = (0.5, 14.0, 365.0)
DT_SECONDS = (900.0, 3600.0)


def digest(values: np.ndarray) -> str:
    """sha256 of a channel's little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def compute_record(case: dict) -> dict:
    """Generate one grid case and return it with its channel digests."""
    config = dataclasses.replace(CONFIGS[case["config"]](), latitude_deg=case["latitude_deg"])
    series = generate_weather(
        config,
        start_day_of_year=case["start_day_of_year"],
        n_days=case["n_days"],
        dt_seconds=case["dt_seconds"],
        rng=case["seed"],
    )
    return {
        **case,
        "n_samples": len(series),
        "temp_sha256": digest(series.temp_out_c),
        "ghi_sha256": digest(series.ghi_w_m2),
    }


def grid() -> list:
    """The fixture's cases, each with its own seed."""
    return [
        {
            "config": name,
            "latitude_deg": lat,
            "start_day_of_year": day,
            "n_days": n_days,
            "dt_seconds": dt,
            "seed": seed,
        }
        for seed, (name, lat, day, n_days, dt) in enumerate(
            itertools.product(CONFIGS, LATITUDES, START_DAYS, N_DAYS, DT_SECONDS)
        )
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute and compare against the committed fixture (no write)",
    )
    args = parser.parse_args()

    records = [compute_record(case) for case in grid()]
    if args.check:
        stored = json.loads(FIXTURE_PATH.read_text())["cases"]
        if stored != records:
            bad = [r for r, s in itertools.zip_longest(records, stored) if r != s]
            print(f"weather check: {len(bad)} case(s) differ", file=sys.stderr)
            return 1
        print(f"weather check: {len(records)} case(s) OK")
        return 0

    payload = {
        "meta": {
            "note": (
                "Regenerate with tools/make_golden_weather.py only for intentional "
                "generator changes; the fixture diff is the review record."
            ),
        },
        "cases": records,
    }
    FIXTURE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} weather case(s) to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
