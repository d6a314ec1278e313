"""Report.sampled, the runner of every seeded check family: named cases
first, then the trials, each drawing sample_seed(seed, check_id, *key,
*position); a trial that raises names its key."""

from polyvec import reporting
from polyvec.reporting import Report
from polyvec.superpoly import sample_seed


def _recorded_seeds(monkeypatch):
    calls = []

    def recording(*parts):
        calls.append(parts)
        return sample_seed(*parts)

    monkeypatch.setattr(reporting, "sample_seed", recording)
    return calls


def test_each_trial_draws_under_the_check_id(monkeypatch):
    calls = _recorded_seeds(monkeypatch)
    seen = []

    def evaluate(draw, t):
        seen.append((t, draw(), draw(7)))
        return iter(())

    report = Report()
    report.sampled("family.id", 5, [(0, 0), (2, 1)], evaluate, count="trials")
    assert seen == [((0, 0), sample_seed(5, "family.id", 0, 0), sample_seed(5, "family.id", 0, 0, 7)),
                    ((2, 1), sample_seed(5, "family.id", 2, 1), sample_seed(5, "family.id", 2, 1, 7))]
    assert {parts[:2] for parts in calls} == {(5, "family.id")}
    [record] = report.records
    assert record.passed and record.details == {"trials": 2}


def test_a_trial_that_raises_names_its_key():
    evaluated = []

    def evaluate(draw, t):
        evaluated.append(t)
        if t == 3:
            raise ZeroDivisionError("at three")
        return iter(())

    report = Report()
    report.sampled("raises.int", 0, 6, evaluate, count="trials")
    assert evaluated == [0, 1, 2, 3]
    [record] = report.records
    assert not record.passed
    assert record.details == {"witness": {"error": "ZeroDivisionError: at three", "trial": 3}}

    def keyed(draw, key):
        if key == (1, 2):
            raise KeyError("slot")
        return iter(())

    report.sampled("raises.tuple", 0, [(j, t) for j in range(2) for t in range(3)], keyed)
    assert report.records[1].details == {"witness": {"error": "KeyError: 'slot'", "trial": [1, 2]}}


def test_a_failing_named_case_stops_the_family_before_any_draw(monkeypatch):
    calls = _recorded_seeds(monkeypatch)
    evaluated = []

    def evaluate(draw, t):
        evaluated.append(draw())
        return iter(())

    report = Report()
    report.sampled("named.fails", 1, 10, evaluate, named=iter([{"case": "first"}, {"case": "second"}]))
    assert report.records[0].details == {"witness": {"case": "first"}}
    assert calls == [] and evaluated == []


def test_named_cases_run_before_the_trials():
    order = []

    def named():
        order.append("named")
        yield from ()

    def evaluate(draw, t):
        order.append(t)
        return iter(())

    report = Report()
    report.sampled("named.pass", 0, 2, evaluate, count="trials", named=named())
    assert order == ["named", 0, 1] and report.ok


def test_a_named_case_that_raises_keeps_the_plain_error_witness():
    def named():
        raise ValueError("named case")
        yield

    report = Report()
    report.sampled("named.raises", 0, 3, lambda draw, t: iter(()), named=named())
    assert report.records[0].details == {"witness": {"error": "ValueError: named case"}}
