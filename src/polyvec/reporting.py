"""Structured verification records shared by the suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from .superpoly import sample_seed


@dataclass
class CheckRecord:
    check_id: str
    passed: bool
    required: bool = True
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "passed": self.passed,
            "required": self.required,
            "details": self.details,
        }


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, required: bool = True, **details):
        self.records.append(CheckRecord(check_id, bool(passed), required, details))

    def check(self, check_id: str, failures: Iterator[dict], **counts):
        """Record a required check family from its failing cases.

        failures yields one witness dict per failing case; the first one
        fails the check and the family is not resumed.  counts (e.g.
        pairs=n) are recorded when no case failed, and the check then
        passes only if every count is positive, since a family that
        checked nothing proves nothing.  A family that raises fails with
        the witness {"error": "<type>: <message>"}, and the campaign goes on.
        """
        try:
            witness = next(failures)
        except StopIteration:
            self.add(check_id, all(counts.values()), **counts)
        except Exception as exc:
            self.add(check_id, False, witness={"error": _error(exc)})
        else:
            self.add(check_id, False, witness=witness)

    def sampled(self, check_id: str, seed: int, trials, evaluate, count: str | None = None, named=()):
        """Record a seeded check family through check, its named cases first.

        named yields the witnesses of the named cases.  trials is a number
        n of trials 0..n-1, or a list of key tuples such as (xi_degree, t).
        evaluate(draw, t) yields the witnesses of trial t, and
        draw(*position) is sample_seed(seed, check_id, *key, *position),
        the key being t or (t,): the check id is the family of every draw.
        A trial that raises fails with the witness {"error": ..., "trial":
        t}, a tuple t given as a list.  count names the detail, if any,
        that records the number of trials.
        """
        keys = range(trials) if isinstance(trials, int) else trials

        def failures():
            yield from named
            for t in keys:
                key = t if isinstance(t, tuple) else (t,)
                try:
                    yield from evaluate(partial(sample_seed, seed, check_id, *key), t)
                except Exception as exc:
                    yield {"error": _error(exc), "trial": list(t) if isinstance(t, tuple) else t}

        self.check(check_id, failures(), **({count: len(keys)} if count else {}))

    def extend(self, other: "Report"):
        self.records.extend(other.records)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records if r.required)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.required and not r.passed]

    def to_jsonl(self) -> str:
        lines = [json.dumps({"schema": "polyvec-report", "version": 1}, sort_keys=True)]
        for r in self.records:
            lines.append(json.dumps(r.to_json(), sort_keys=True, default=str))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = []
        for r in self.records:
            status = "PASS" if r.passed else ("FAIL" if r.required else "info:FAIL")
            note = "" if r.required else "  [informational]"
            lines.append(f"{status:9s} {r.check_id}{note}")
            if not r.passed and r.details:
                for key, value in sorted(r.details.items()):
                    lines.append(f"          {key}: {value}")
        lines.append(f"{'OK' if self.ok else 'FAILED'}: "
                     f"{sum(r.passed for r in self.records)}/{len(self.records)} checks passed")
        return "\n".join(lines)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"
