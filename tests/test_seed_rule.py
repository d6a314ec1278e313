"""Every family of a campaign draws under its own check id.

A family-level seed is sample_seed(campaign seed, family, ...).  Its
family is the check id of a record of the report, since a seeded family
draws through Report.sampled, verify_datum's and cocycle_check's
included.  The one exception is verify_datum's informational
side-condition probe, whose families are "H_squared", "p_H" and "Hi".
Secondary choices (a draw's xi-degree, slot or redraw) are seeded from
the draw's own seed, so every random_poly draw traces back to one
family, and no two families draw the same arguments.  Only the datum's
homotopy families draw one set of arguments twice: the datum's negative
control re-runs them, and only them, on a corrupted homotopy, with a
smaller budget, so its draws are among the verified ones.
"""

import inspect
import sys
from collections import defaultdict

import pytest

from polyvec import suites, superpoly
from polyvec.complexes import Variant
from polyvec.suites import CampaignConfig, run_campaign

SIDE_CONDITION_PROBES = {"H_squared", "p_H", "Hi"}

CONFIGS = {
    "mbcov_d3": CampaignConfig(d=3, max_degree=3, trials=25, seed=42),
    "potential_2_d5": CampaignConfig(d=5, variant=Variant.potential(2), max_degree=3, trials=80, seed=42),
}


def _is_datum_family(family) -> bool:
    return family.startswith("datum.") or family in SIDE_CONDITION_PROBES


def _record_draws(monkeypatch, campaign_seed):
    """Patch sample_seed and random_poly in every polyvec module; return
    the families named at the campaign seed and the (family, arguments)
    of every random_poly call."""
    families, draws, origin = [], [], {}
    real_seed, real_poly = superpoly.sample_seed, superpoly.random_poly
    signature = inspect.signature(real_poly)

    def sample_seed(*parts):
        seed = real_seed(*parts)
        if parts[0] == campaign_seed and len(parts) > 1:
            families.append(parts[1])
            origin.setdefault(seed, parts[1])
        elif parts[0] in origin:
            origin.setdefault(seed, origin[parts[0]])
        return seed

    def random_poly(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        draws.append((origin.get(bound.arguments["seed"]), tuple(bound.arguments.values())))
        return real_poly(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyvec"):
            for attr, fake in (("sample_seed", sample_seed), ("random_poly", random_poly)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fake)
    return families, draws


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_family_draws_under_a_check_id(monkeypatch, name):
    cfg = CONFIGS[name]
    families, draws = _record_draws(monkeypatch, cfg.seed)
    report = run_campaign(cfg)
    ids = {r.check_id for r in report.records}
    named = set(families)
    assert named & ids
    assert named - ids == SIDE_CONDITION_PROBES
    # every draw is seeded from one family
    assert draws and all(family is not None for family, _ in draws)
    by_arguments = defaultdict(list)
    for family, arguments in draws:
        by_arguments[arguments].append(family)
    shared = {args: fams for args, fams in by_arguments.items() if len(set(fams)) > 1}
    assert not shared
    repeated = {fams[0] for fams in by_arguments.values() if len(fams) > 1}
    assert all(_is_datum_family(f) for f in repeated)
    assert any(f.startswith("datum.") and f in ids for f in repeated)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_negative_control_redraws_only_verified_homotopy_samples(monkeypatch, name):
    cfg = CONFIGS[name]
    _, draws = _record_draws(monkeypatch, cfg.seed)
    phases = {}

    def phase(label, fn):
        def run(*args, **kwargs):
            start = len(draws)
            out = fn(*args, **kwargs)
            phases[label] = draws[start:]
            return out
        return run

    monkeypatch.setattr(suites, "verify_datum", phase("verified", suites.verify_datum))
    monkeypatch.setattr(suites, "homotopy_relations", phase("control", suites.homotopy_relations))
    suites.suite_homotopy(cfg)
    verified, control = phases["verified"], phases["control"]
    assert control and len(control) < len(verified)
    assert all(".homotopy." in family for family, _ in control)
    assert set(control) <= set(verified)
