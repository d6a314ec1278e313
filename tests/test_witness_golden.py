"""The failing records of the golden campaign under single convention flips.

Each flip negates one pinned convention and makes some check families
of the default campaign (d = 3, mbcov, deg 3, 25 trials, seed 42) fail.
The golden file holds those failing records, one JSON line each, tagged
with the flip: it pins both the draws behind each witness and the text
of the witness.  None of these flips makes a family raise.

Regenerate it with

    PYTHONPATH=src python tests/test_witness_golden.py > tests/golden/witnesses_mbcov_d3.jsonl
"""

import json
import sys
from pathlib import Path

from polyvec import conventions
from polyvec.suites import CampaignConfig, run_campaign

GOLDEN = Path(__file__).parent / "golden" / "witnesses_mbcov_d3.jsonl"
GOLDEN_CONFIG = dict(d=3, max_degree=3, trials=25, seed=42)


def _negated(value):
    return (lambda k: -value(k)) if callable(value) else -value


FLIPS = ("SIGMA", "EXT_C1_SIGN", "F_SIGN", "LIFT_SIGN", "EMBED_K_SIGN", "KAPPA_EVEN", "transport_sign")


def witness_lines() -> str:
    lines = []
    for name in FLIPS:
        pinned = getattr(conventions, name)
        setattr(conventions, name, _negated(pinned))
        try:
            report = run_campaign(CampaignConfig(**GOLDEN_CONFIG))
        finally:
            setattr(conventions, name, pinned)
        lines += [json.dumps({"flip": name, **r.to_json()}, sort_keys=True, default=str)
                  for r in report.records if not r.passed]
    return "\n".join(lines) + "\n"


def test_witnesses_match_golden():
    assert witness_lines() == GOLDEN.read_text()


def test_every_flip_fails_a_family():
    flips = {json.loads(line)["flip"] for line in GOLDEN.read_text().splitlines()}
    assert flips == set(FLIPS)


if __name__ == "__main__":
    sys.stdout.write(witness_lines())
