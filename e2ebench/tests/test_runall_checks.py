"""runall's correctness gate: verdicts and byte-identical warm reports."""

from harness import Report
from layers import EXPERIMENT_IDS
from runall_workload import SEED_DEPENDENT, Pass, check_cold, check_same


def stdout(verdicts=None, tweak=None):
    verdicts = verdicts or {}
    parts = []
    for eid in EXPERIMENT_IDS:
        body = f"== {eid}: title ==\nclaim: c\n\nx  1\n"
        if eid == tweak:
            body += "extra line\n"
        parts.append(body + f"\nverdict: {verdicts.get(eid, 'REPRODUCED: yes')}")
    return ("\n\n".join(parts) + "\n").encode()


def test_reports_split_per_experiment():
    reports = Pass(0, 0.0, 1.0, 0, stdout()).reports()
    assert list(reports) == list(EXPERIMENT_IDS)
    assert reports["gap"].startswith(b"== gap: ") and reports["gap"].endswith(b"REPRODUCED: yes")


def test_cold_gate_checks_verdicts_and_the_exit_code():
    report = Report("runall", trace=False)
    positive = {"gap": "SUPPORTED: s", "abeq": "ROBUST: r", "fig1": "REPRODUCED (κ=b): k"}
    assert check_cold(report, Pass(0, 0.0, 1.0, 0, stdout(positive))) == []
    assert (report.attempted, report.failed) == (21, 0)
    report = Report("runall", trace=False)
    negative = check_cold(report, Pass(1, 0.0, 1.0, 0, stdout({"gap": "MISMATCH: m"})))
    assert negative == ["gap (MISMATCH)"] and report.failed == 1
    assert any("gap" in what for what in report.failures)
    report = Report("runall", trace=False)
    check_cold(report, Pass(0, 0.0, 1.0, 0, stdout({"gap": "MISMATCH: m"})))
    assert report.failed == 2  # the verdict, and exit 0 although it is not positive


def test_seed_dependent_verdicts_are_reported_not_failed():
    assert set(SEED_DEPENDENT) <= set(EXPERIMENT_IDS)
    verdicts = {"ablation": "SENSITIVE: s", "realistic": "MISMATCH: m", "oracle": "MIXED: x"}
    report = Report("runall", trace=False)
    negative = check_cold(report, Pass(1, 0.0, 1.0, 0, stdout(verdicts)))
    assert negative == ["ablation (SENSITIVE)", "realistic (MISMATCH)", "oracle (MIXED)"]
    assert (report.attempted, report.failed) == (21, 0)
    report = Report("runall", trace=False)
    check_cold(report, Pass(-9, 0.0, 1.0, 0, stdout().split(b"== iid")[0]))
    assert report.failed == len(EXPERIMENT_IDS) - 3 + 1  # missing reports, bad exit


def test_warm_report_must_match_cold_byte_for_byte():
    cold = Pass(0, 0.0, 1.0, 0, stdout())
    report = Report("runall", trace=False)
    check_same(report, cold, Pass(0, 0.0, 1.0, 0, stdout()), "warm")
    assert (report.attempted, report.failed) == (21, 0)
    report = Report("runall", trace=False)
    check_same(report, cold, Pass(0, 0.0, 1.0, 0, stdout(tweak="iid")), "warm")
    assert report.failed == 2  # the iid report, and the stdout as a whole
    assert any("iid" in what for what in report.failures)
    report = Report("runall", trace=False)
    check_same(report, cold, Pass(1, 0.0, 1.0, 0, stdout()), "warm")
    assert report.failed == 1  # the exit code differs
