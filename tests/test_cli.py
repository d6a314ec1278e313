import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyvec.cli import TIMING_MARKER, build_parser, config_from_args, main
from polyvec.complexes import Variant
from polyvec.reporting import Report
from polyvec.superpoly import EXP_CAP, SuperPoly
from polyvec import cli, conventions, suites

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_ARGS = ["--d", "3", "--variant", "mbcov", "--deg", "3", "--trials", "25", "--seed", "42"]
POTENTIAL_D4_ARGS = ["--d", "4", "--variant", "potential", "--k", "2",
                     "--deg", "3", "--trials", "10", "--seed", "42"]


def _summary_head(path: Path) -> str:
    text = path.read_text()
    return text.split(TIMING_MARKER)[0]


def test_exit_zero_on_pass(tmp_path, capsys):
    code = main(DEFAULT_ARGS + ["--check", "contraction", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("info:FAIL", "")


def test_single_trial_campaign_passes():
    # families that draw trials // 2 samples still draw one at trials 1
    assert main(["--d", "3", "--deg", "3", "--trials", "1", "--seed", "42"]) == 0


def test_exit_two_on_a_repeated_check(monkeypatch, capsys):
    # a repeated suite would write its check ids into one report twice
    def refuse(cfg):
        raise AssertionError("a campaign started")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    with pytest.raises(SystemExit) as exc:
        main(DEFAULT_ARGS + ["--check", "algebra", "--check", "contraction", "--check", "algebra"])
    assert exc.value.code == 2
    assert "repeated checks: ['algebra']" in capsys.readouterr().err
    with pytest.raises(ValueError, match="repeated"):
        suites.CampaignConfig(checks=("sho", "sho")).validate()


def test_a_family_that_raises_fails_and_the_campaign_goes_on(tmp_path, monkeypatch):
    # a negated Euler-homotopy sign breaks K, so the minimal model's b2 and
    # the SHO generators' divergence-free projection raise inside families
    pinned = conventions.euler_homotopy_sign
    monkeypatch.setattr(conventions, "euler_homotopy_sign", lambda k: -pinned(k))
    assert main(DEFAULT_ARGS + ["--out", str(tmp_path)]) == 1
    records = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()[2:]]
    assert len(records) == 56
    witnesses = {r["check"]: r["details"].get("witness", {}) for r in records}
    # a seeded trial that raises names its trial key
    assert witnesses["jacobi.mbcov.d3.arity3"] == {"error": "KeyError: ('pv', 3)", "trial": 1}
    for check in ("extension.super_jacobi", "sl2.derivation.h"):
        assert witnesses[check] == {"error": "ValueError: generator must be divergence free", "trial": 0}
    assert set(witnesses["contraction.d3.homotopy_identity"]) == {"mu", "xi_degree"}


def test_exit_two_on_bad_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--d", "3", "--variant", "potential", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--d", "3", "--variant", "potential"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--d", "4", "--check", "sl2"])  # sl2 needs d = 3
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--check", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("d", ["17", "64"])
def test_exit_two_on_a_dimension_above_the_maximum(monkeypatch, capsys, d):
    # the config check rejects d > superpoly.MAX_D before a campaign
    # builds a key layout with its 2^d-entry sign table
    def refuse(cfg):
        raise AssertionError("a campaign started")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["--d", d])
    assert exc.value.code == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_two_on_a_degree_whose_products_pass_the_exponent_cap(monkeypatch, capsys):
    # the algebra suite multiplies three samples, so deg 130 samples (and
    # their products) would overflow superpoly.EXP_CAP inside a campaign
    def refuse(cfg):
        raise AssertionError("a campaign started")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["--d", "2", "--deg", "130", "--trials", "1", "--check", "algebra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "at most 41" in err and "'algebra'" in err
    assert "Traceback" not in err


def test_degree_bound_follows_the_selected_suites():
    bound = (EXP_CAP - suites.RAISE_HEADROOM) // 3
    suites.CampaignConfig(d=2, max_degree=bound, checks=("algebra",)).validate()
    with pytest.raises(ValueError, match=f"at most {bound}"):
        suites.CampaignConfig(d=2, max_degree=bound + 1, checks=("algebra",)).validate()
    # the contraction suite draws one sample at a time; a transfer at arity
    # cap 5 multiplies five
    suites.CampaignConfig(d=2, max_degree=bound + 1, checks=("contraction",)).validate()
    with pytest.raises(ValueError, match="'transfer' multiplies 5"):
        suites.CampaignConfig(d=2, max_degree=bound, arity_cap=5, checks=("transfer",)).validate()
    # every benchmark workload and golden campaign is admitted
    for args in [*GOLDEN_CAMPAIGNS.values(), *GOLDEN_TABLES.values()]:
        config_from_args(build_parser().parse_args(args))
    workloads = json.loads((Path(__file__).parent.parent / "perfbench" / "workloads.json").read_text())
    for w in workloads["workloads"].values():
        variant = Variant.potential(w["k"]) if w["variant"] == "potential" else Variant.mbcov()
        suites.CampaignConfig(d=w["d"], variant=variant, max_degree=w["deg"], trials=w["trials"],
                              arity_cap=w["arity_cap"], checks=tuple(w["suites"])).validate()


def test_arity_cap_two_records_no_higher_bracket_family():
    def ids(cap):
        cfg = suites.CampaignConfig(d=3, max_degree=2, trials=3, arity_cap=cap, checks=("transfer",))
        return [r.check_id for r in suites.run_campaign(cfg).records]

    assert ids(2) == ["transfer.d3.l2_matches_schouten"]
    assert ids(3) == ["transfer.d3.l2_matches_schouten", "transfer.d3.higher_brackets_vanish"]


def test_transfer_requires_mbcov(capsys):
    # suite_transfer transfers the mbcov complex only, so asking for it on a
    # potential variant is a configuration error, not two mbcov PASS lines
    with pytest.raises(SystemExit) as exc:
        main(["--d", "3", "--variant", "potential", "--k", "2", "--check", "transfer"])
    assert exc.value.code == 2
    assert "mbcov" in capsys.readouterr().err
    cfg = suites.CampaignConfig(d=3, variant=Variant.potential(2))
    assert "transfer" not in suites.default_checks(cfg)


def test_exit_one_on_verification_failure(monkeypatch, capsys):
    def failing_suite(cfg):
        report = Report()
        report.add("injected.failure", False, witness="forced")
        return report

    monkeypatch.setitem(suites.SUITES, "contraction", failing_suite)
    code = main(DEFAULT_ARGS + ["--check", "contraction"])
    assert code == 1


def test_informational_side_conditions_do_not_affect_status(monkeypatch):
    def informational(cfg):
        report = Report()
        report.add("injected.ok", True)
        report.add("injected.side", False, required=False)
        return report

    monkeypatch.setitem(suites.SUITES, "contraction", informational)
    assert main(DEFAULT_ARGS + ["--check", "contraction"]) == 0


def test_potential_five_two_jacobi(capsys):
    code = main(["--d", "5", "--variant", "potential", "--k", "2",
                 "--check", "jacobi", "--deg", "3", "--trials", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "jacobi.potential(2).d5.arity5" in out


def test_json_format(capsys):
    code = main(DEFAULT_ARGS + ["--check", "contraction", "--format", "json"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["config"]["d"] == 3
    assert header["conventions"]["kappa_even"] == "2"
    for line in lines[1:]:
        record = json.loads(line)
        assert record["passed"] is True


def test_report_determinism(tmp_path):
    # the potential campaign's bracket table carries the central slot "c"
    for name, args in (("mbcov", DEFAULT_ARGS), ("central", POTENTIAL_D4_ARGS)):
        out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
        assert main(args + ["--out", str(out1), "--export-tables"]) == 0
        assert main(args + ["--out", str(out2), "--export-tables"]) == 0
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
        assert _summary_head(out1 / "summary.txt") == _summary_head(out2 / "summary.txt")
        t1 = sorted((out1 / "tables").glob("*.json"))
        t2 = sorted((out2 / "tables").glob("*.json"))
        assert t1 and [p.name for p in t1] == [p.name for p in t2]
        for a, b in zip(t1, t2):
            assert a.read_bytes() == b.read_bytes()
    rows = json.loads((out1 / "tables" / "brackets_potential_2_d4.json").read_text())
    central = [x["c"] for row in rows for x in row["inputs"] + [row["output"]] if "c" in x]
    assert central and all(SuperPoly.parse(4, text).xi_degrees() == {4} for text in central)


# golden report name -> campaign arguments; the potential campaigns reach
# the pot, quot and central slots, which the default campaign never does
GOLDEN_CAMPAIGNS = {
    "report": DEFAULT_ARGS,
    "report_potential_d3_k2": ["--d", "3", "--variant", "potential", "--k", "2",
                               "--deg", "3", "--trials", "10", "--seed", "42"],
    "report_potential_d4_k2": POTENTIAL_D4_ARGS,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
def test_golden_default_campaign(tmp_path, name):
    out = tmp_path / "run"
    assert main(GOLDEN_CAMPAIGNS[name] + ["--out", str(out)]) == 0
    golden = GOLDEN / f"{name}.jsonl"
    assert golden.exists(), "golden report missing; regenerate with scripts in README"
    assert (out / "report.jsonl").read_bytes() == golden.read_bytes()


# golden bracket table -> campaign arguments; the potential table carries
# quot and central parts, so it pins the text of every slot kind
GOLDEN_TABLES = {
    "brackets_mbcov_d3": DEFAULT_ARGS,
    "brackets_potential_2_d4": POTENTIAL_D4_ARGS,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_golden_bracket_table(tmp_path, name):
    out = tmp_path / "run"
    assert main(GOLDEN_TABLES[name] + ["--check", "contraction", "--out", str(out),
                                       "--export-tables"]) == 0
    golden = GOLDEN / f"{name}.json"
    assert (out / "tables" / golden.name).read_bytes() == golden.read_bytes()


def test_extension_table_contains_pairing_row(tmp_path):
    out = tmp_path / "run"
    assert main(DEFAULT_ARGS + ["--out", str(out), "--export-tables"]) == 0
    rows = json.loads((out / "tables" / "extension_structure_constants.json").read_text())
    hits = [r for r in rows if {r["left"], r["right"]} == {"xi1", "xi2*xi3"}]
    assert hits and all(r["e1"] in ("1", "-1") and r["bracket"] == "0" for r in hits)


def test_parser_defaults_roundtrip():
    args = build_parser().parse_args([])
    cfg = config_from_args(args)
    assert cfg.d == 3 and cfg.variant.kind == "mbcov"


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYVEC_OUT", str(tmp_path / "envout"))
    assert main(["--d", "2", "--check", "contraction", "--trials", "10"]) == 0
    assert (tmp_path / "envout" / "report.jsonl").exists()


def _run_verify(argv, out: Path, hash_seed: str, patch: str = "") -> int:
    """Run verify in a fresh interpreter under the given PYTHONHASHSEED,
    after executing patch in the conventions module."""
    script = ("import sys; from fractions import Fraction; from polyvec import cli, conventions; "
              f"exec({patch!r}, vars(conventions)); sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL, timeout=600).returncode


def test_failing_report_identical_across_hash_seeds(tmp_path):
    # a flipped f sign makes sl2 fail; the failing records carry
    # witnesses, so equal bytes mean equal samples in both processes
    argv = ["--d", "3", "--deg", "3", "--trials", "10", "--check", "sl2"]
    patch = "F_SIGN = 1"
    codes = [_run_verify(argv, tmp_path / seed, seed, patch) for seed in ("1", "2")]
    assert codes == [1, 1]
    first, second = ((tmp_path / seed / "report.jsonl").read_bytes() for seed in ("1", "2"))
    assert b'"witness"' in first
    assert first == second


@pytest.mark.parametrize("seed", ["63186545", "1563"])
def test_cocycle_negative_control_is_deterministic(seed):
    # the named basis triples of cocycle_check expose the perturbed
    # pairing at every seed, before any triple is drawn
    argv = ["--d", "3", "--deg", "4", "--trials", "20", "--seed", seed, "--check", "cocycles"]
    assert main(argv) == 0


def test_jacobi_slots_depend_on_campaign_seed(monkeypatch):
    from polyvec.complexes import CarrierModel, Variant

    asked = []
    draw = CarrierModel.random_element

    def recording(self, slot, max_degree, seed):
        asked.append(slot)
        return draw(self, slot, max_degree, seed)

    monkeypatch.setattr(CarrierModel, "random_element", recording)
    runs = []
    for seed in (1, 2):
        asked.clear()
        suites.suite_jacobi(suites.CampaignConfig(d=4, variant=Variant.potential(2), max_degree=2,
                                                  trials=8, seed=seed))
        runs.append(list(asked))
    assert runs[0] != runs[1]
