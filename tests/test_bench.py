"""Benchmark harness: system specs, scoring arithmetic, the runner."""

import itertools
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import pytest

import afsat
from afsat import bench
from afsat.bench import (
    BenchRecord,
    CSV_HEADER,
    _case_score,
    ipc_score,
    manifest_groups,
    parse_system,
    read_records,
    run_bench,
    run_one,
    success_rate,
)
from afsat.cnf import EncodingId
from afsat.generators import METHOD_PROBABILITY, build_suite, load_manifest


def running(pid, wait_s=5.0):
    """True if the process is still running (not gone, not a zombie) after
    up to wait_s seconds; a killed orphan is reaped asynchronously."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state == "Z" or time.monotonic() > deadline:
            return state != "Z"
        time.sleep(0.05)


def R(instance, system, outcome, seconds):
    return BenchRecord(instance, system, outcome, seconds)


class TestSystemSpecs:
    def test_builtin(self):
        enc, backend = parse_system("C2:builtin")
        assert enc is EncodingId.C2 and backend == ("builtin",)

    def test_external(self):
        enc, backend = parse_system("C1a:ext:/opt/solver")
        assert enc is EncodingId.C1A and backend == ("ext", "/opt/solver")

    def test_rejects_bad_specs(self):
        for spec in ("C2", "C9:builtin", "C2:magic", "C2:ext:", ":builtin"):
            with pytest.raises(ValueError):
                parse_system(spec)


class TestRecord:
    def test_validates_outcome(self):
        with pytest.raises(ValueError):
            BenchRecord("i", "s", "maybe", 1.0)


class TestCaseScore:
    def test_equal_to_best(self):
        assert _case_score(5.0, 5.0) == 1.0

    def test_ten_times_best(self):
        assert _case_score(10.0, 1.0) == pytest.approx(0.5)

    def test_sub_second_clamp(self):
        assert _case_score(0.2, 0.001) == 1.0

    def test_log_shape(self):
        assert _case_score(100.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert _case_score(2.0, 1.0) == pytest.approx(1.0 / (1.0 + math.log10(2.0)))
        # T* = 0 makes log10(T/T*) infinite: the score's limit is 0
        assert _case_score(2.0, 0.0) == 0.0


class TestIpcScore:
    def records(self):
        return [
            # case1: B wins, A is 10x slower
            R("c1", "A", "solved", 10.0), R("c1", "B", "solved", 1.0),
            # case2: both sub-second, both clamp to 1
            R("c2", "A", "solved", 0.5), R("c2", "B", "solved", 0.9),
            # case3: A times out
            R("c3", "A", "timeout", 60.0), R("c3", "B", "solved", 2.0),
            # case4: nobody solves it -> not a valid case
            R("c4", "A", "timeout", 60.0), R("c4", "B", "error", 0.1),
        ]

    def test_normalized_scores(self):
        table = ipc_score(self.records())
        assert table.value("all", "A") == pytest.approx(100.0 * (0.5 + 1.0) / 3)
        assert table.value("all", "B") == pytest.approx(100.0)
        assert table.cases_per_group["all"] == 3

    def test_all_sub_second_system_scores_100(self):
        records = [R(f"c{i}", "A", "solved", 0.01 * i) for i in range(1, 6)]
        table = ipc_score(records)
        assert table.value("all", "A") == pytest.approx(100.0)

    def test_budget_filter_turns_slow_solves_into_failures(self):
        records = [R("c1", "A", "solved", 20.0), R("c1", "B", "solved", 2.0)]
        table = ipc_score(records, budget_s=10.0)
        assert table.value("all", "A") == 0.0
        assert table.value("all", "B") == pytest.approx(100.0)

    def test_grouping_and_reps(self):
        groups = {"c1": "k=025", "c2": "k=050"}
        records = [
            R("c1", "A", "solved", 10.0), R("c1", "B", "solved", 1.0),
            # repetition row, same group as its base instance
            R("c1@r2", "A", "solved", 1.0), R("c1@r2", "B", "timeout", 60.0),
            R("c2", "A", "timeout", 60.0), R("c2", "B", "solved", 2.0),
        ]
        table = ipc_score(records, groups=groups)
        assert table.groups == ["k=025", "k=050"]
        assert table.value("k=025", "A") == pytest.approx(75.0)
        assert table.value("k=025", "B") == pytest.approx(50.0)
        assert table.value("k=050", "A") == 0.0
        assert table.value("k=050", "B") == pytest.approx(100.0)
        assert table.cases_per_group == {"k=025": 2, "k=050": 1}

    def test_case_nobody_solves_is_ignored(self):
        records = [R("c1", "A", "solved", 1.0),
                   R("c2", "A", "timeout", 60.0)]
        table = ipc_score(records, groups={"c1": "g1", "c2": "g2"})
        assert table.groups == ["g1"]
        assert table.cases_per_group == {"g1": 1}

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            ipc_score([])

    def test_renderings(self):
        table = ipc_score(self.records())
        text = table.to_text()
        assert "normalized IPC" in text and "(3)" in text
        csv_text = table.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "group,A,B,cases"
        assert lines[1].startswith("all,50.0000,100.0000,3")
        gp = table.to_gnuplot()
        assert gp.splitlines()[0] == "# group A B"
        assert gp.splitlines()[1] == "all 50.0000 100.0000"


class TestSuccessRate:
    def test_rates(self):
        records = [
            R("c1", "A", "solved", 1.0), R("c2", "A", "timeout", 9.0),
            R("c1", "B", "solved", 1.0), R("c2", "B", "solved", 1.0),
        ]
        table = success_rate(records)
        assert table.value("all", "A") == pytest.approx(50.0)
        assert table.value("all", "B") == pytest.approx(100.0)


class TestManifestGroups:
    MANIFEST = {"instances": [
        {"id": "prob-k025-p0.5-000", "class_id": "prob-k025-p0.5", "k": 25,
         "method": "probability"},
        {"id": "count-k050-000", "class_id": "count-k050", "k": 50,
         "method": "count"},
    ]}

    def test_by_k(self):
        groups = manifest_groups(self.MANIFEST, by="k")
        assert groups["prob-k025-p0.5-000"] == "k=025"
        assert groups["count-k050-000"] == "k=050"

    def test_by_class_method_all(self):
        assert manifest_groups(self.MANIFEST, by="class")["count-k050-000"] \
            == "count-k050"
        assert manifest_groups(self.MANIFEST, by="method")["count-k050-000"] \
            == "count"
        assert set(manifest_groups(self.MANIFEST, by="all").values()) == {"all"}
        with pytest.raises(ValueError):
            manifest_groups(self.MANIFEST, by="size")


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    classes = [("probT", METHOD_PROBABILITY, 6, 0.5, 2)]
    build_suite(str(out), base_seed=3, classes=classes)
    return str(out)


class TestRunner:
    def test_run_one_solved(self, tiny_suite):
        manifest = load_manifest(tiny_suite)
        path = f"{tiny_suite}/{manifest['instances'][0]['path']}"
        outcome, seconds, detail = run_one("C2:builtin", path, budget_s=60)
        assert outcome == "solved"
        assert seconds > 0 and detail == ""

    def test_run_one_error(self):
        outcome, _, detail = run_one("C2:builtin", "/no/such/file.apx", 60)
        assert outcome == "error"
        assert detail

    def test_run_one_solved_past_budget_is_timeout(self, tiny_suite,
                                                   monkeypatch):
        """A child that exits 0 after its budget timed out at the budget
        (the harness's clock starts before the child's timeout window), so
        no recorded run is solved past its budget; an error keeps its
        outcome and detail."""
        real = time.perf_counter
        ticks = itertools.count()
        monkeypatch.setattr(bench.time, "perf_counter",
                            lambda: real() + 60 * next(ticks))
        manifest = load_manifest(tiny_suite)
        path = f"{tiny_suite}/{manifest['instances'][0]['path']}"
        assert run_one("C2:builtin", path, budget_s=30) == ("timeout", 30.0, "")
        outcome, seconds, detail = run_one("C2:builtin", "/no/such/file.apx",
                                           budget_s=30)
        assert outcome == "error" and seconds > 30
        assert "/no/such/file.apx" in detail

    def test_run_one_timeout(self, tiny_suite, tmp_path, monkeypatch):
        # an executable fake solver that hangs, driving the child over budget
        pid_file = tmp_path / "sleeper.pid"
        sleeper = tmp_path / "sleeper.py"
        sleeper.write_text(f"#!{sys.executable}\nimport os, time\n"
                           f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
                           "time.sleep(60)\n")
        sleeper.chmod(0o755)
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        manifest = load_manifest(tiny_suite)
        path = f"{tiny_suite}/{manifest['instances'][0]['path']}"
        outcome, seconds, _ = run_one(f"C2:ext:{sleeper}", path, budget_s=1.0)
        assert outcome == "timeout"
        assert seconds == 1.0
        # the solver the child started is killed with it, and the child's
        # temporary DIMACS file does not outlive the run
        assert not running(int(pid_file.read_text()))
        assert list(temp_root.iterdir()) == []

    def test_run_bench_and_resume(self, tiny_suite, tmp_path):
        out_csv = str(tmp_path / "results.csv")
        seen = []
        records = run_bench(tiny_suite, ["C2:builtin"], budget_s=60,
                            out_csv=out_csv, progress=seen.append)
        assert len(records) == 2
        assert all(r.outcome == "solved" for r in records)
        assert len(seen) == 2
        back = read_records(out_csv)
        assert [(r.instance_id, r.outcome) for r in back] == \
            [(r.instance_id, r.outcome) for r in records]
        # resume adds nothing new and keeps old rows
        again = run_bench(tiny_suite, ["C2:builtin"], budget_s=60,
                          out_csv=out_csv)
        assert len(again) == 2
        assert [r.instance_id for r in read_records(out_csv)] == \
            [r.instance_id for r in back]

    def test_run_bench_keeps_error_detail(self, tiny_suite, tmp_path):
        out_csv = str(tmp_path / "failing.csv")
        records = run_bench(tiny_suite, ["C2:ext:/nonexistent"], budget_s=60,
                            out_csv=out_csv)
        assert [r.outcome for r in records] == ["error", "error"]
        assert all("/nonexistent" in r.detail for r in records)
        # the CSV keeps its four columns, so a later run can resume from it
        with open(out_csv) as fh:
            assert fh.readlines()[1] == ",".join(CSV_HEADER) + "\n"
        back = read_records(out_csv)
        assert [(r.instance_id, r.outcome, r.detail) for r in back] == \
            [(r.instance_id, "error", "") for r in records]

    def test_run_bench_repetitions(self, tiny_suite, tmp_path):
        out_csv = str(tmp_path / "reps.csv")
        records = run_bench(tiny_suite, ["C2:builtin"], budget_s=60,
                            out_csv=out_csv, repetitions=2)
        ids = sorted(r.instance_id for r in records)
        assert len(ids) == 4
        assert sum("@r2" in i for i in ids) == 2

    def test_rejects_bad_arguments(self, tiny_suite, tmp_path):
        with pytest.raises(ValueError):
            run_bench(tiny_suite, ["C2:builtin"], budget_s=60,
                      out_csv=str(tmp_path / "x.csv"), repetitions=0)
        with pytest.raises(ValueError):
            run_bench(tiny_suite, ["C2:wat"], budget_s=60,
                      out_csv=str(tmp_path / "y.csv"))
        for budget in (0, -5, math.nan, math.inf):
            with pytest.raises(ValueError, match="budget must be positive"):
                run_bench(tiny_suite, ["C2:builtin"], budget_s=budget,
                          out_csv=str(tmp_path / "z.csv"))
        # subprocess cannot wait longer
        with pytest.raises(ValueError, match="budget must be at most 2147483"):
            run_bench(tiny_suite, ["C2:builtin"], budget_s=2_147_484,
                      out_csv=str(tmp_path / "z.csv"))
        # a repeated system would score twice on every case
        with pytest.raises(ValueError, match="system listed twice: C2:builtin"):
            run_bench(tiny_suite, ["C2:builtin", "C3:builtin", "C2:builtin"],
                      budget_s=60, out_csv=str(tmp_path / "w.csv"))
        assert not any(tmp_path.glob("[zw].csv"))

    def test_resume_keeps_the_budget(self, tiny_suite, tmp_path):
        """A CSV resumes only under the budget its first line names; one
        without that line resumes as before."""
        out_csv = str(tmp_path / "results.csv")
        run_bench(tiny_suite, ["C2:builtin"], budget_s=60, out_csv=out_csv)
        with open(out_csv) as fh:
            written = fh.read()
        with pytest.raises(ValueError, match=r"budget_s=60\b.*budget_s=900"):
            run_bench(tiny_suite, ["C2:builtin"], budget_s=900,
                      out_csv=out_csv)
        assert len(run_bench(tiny_suite, ["C2:builtin"], budget_s=60.0,
                             out_csv=out_csv)) == 2
        # without resume, a new file is started under the new budget
        run_bench(tiny_suite, ["C2:builtin"], budget_s=900, out_csv=out_csv,
                  resume=False)
        with open(out_csv) as fh:
            assert fh.readline().endswith("; budget_s=900\n")
        with open(out_csv, "w") as fh:
            fh.write(written.split("\n", 1)[1])  # no budget line
        assert len(run_bench(tiny_suite, ["C2:builtin"], budget_s=900,
                             out_csv=out_csv)) == 2
        with open(out_csv) as fh:
            assert fh.read() == written.split("\n", 1)[1]

    def test_run_bench_interrupted_drops_queued_runs(self, tiny_suite,
                                                     tmp_path, monkeypatch):
        """An interrupt in the write loop ends the campaign: no queued run
        starts, and the CSV holds only the record already handed to
        progress."""
        started = []

        def fake_run_one(system_id, apx_path, budget_s):
            started.append(apx_path)
            return "solved", 0.1, ""

        def interrupt(rec):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_one", fake_run_one)
        out_csv = str(tmp_path / "interrupted.csv")
        with pytest.raises(KeyboardInterrupt):
            run_bench(tiny_suite, ["C2:builtin"], budget_s=60,
                      out_csv=out_csv, repetitions=6, progress=interrupt)
        assert len(started) == 1  # of 12 runs
        back = read_records(out_csv)
        assert len(back) == 1  # the one record handed to progress

    def test_sigint_kills_the_running_child(self, tiny_suite, tmp_path):
        """Ctrl-C on `afsat bench` ends the run in progress at once: its
        solver is killed, its private TMPDIR removed, no other run starts,
        and the command exits 130 without a traceback."""
        pid_file = tmp_path / "sleeper.pids"
        sleeper = tmp_path / "sleeper.py"
        sleeper.write_text(f"#!{sys.executable}\nimport os, time\n"
                           f"with open({str(pid_file)!r}, 'a') as fh:\n"
                           "    fh.write(f'{os.getpid()}\\n')\n"
                           "time.sleep(60)\n")
        sleeper.chmod(0o755)
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        package_parent = os.path.dirname(os.path.dirname(afsat.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "afsat", "bench", "--manifest", tiny_suite,
             "--systems", f"C2:ext:{sleeper}", "--budget", "60",
             "--out", str(tmp_path / "r.csv")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, TMPDIR=str(temp_root),
                     PYTHONPATH=package_parent))
        def sleeper_started():
            return pid_file.exists() and pid_file.read_text().endswith("\n")

        try:
            deadline = time.monotonic() + 60
            while not sleeper_started() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert sleeper_started()
            proc.send_signal(signal.SIGINT)
            # raises if bench is still waiting
            _, stderr = proc.communicate(timeout=5)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130
        assert stderr.endswith("afsat: interrupted\n")
        assert "Traceback" not in stderr
        pids = pid_file.read_text().split()
        assert len(pids) == 1
        assert not running(int(pids[0]))
        assert list(temp_root.iterdir()) == []

    @pytest.mark.parametrize("row", [
        "probT-000,C2:bui",
        "probT-000,C2:builtin,solved,1.0,extra",
        "probT-000,C2:builtin,solved,fast",
        "probT-000,C2:builtin,maybe,1.0",
        "probT-000,C2:builtin,solved,nan",
        "probT-000,C2:builtin,solved,inf",
        "probT-000,C2:builtin,solved,-1",
    ], ids=["truncated", "extra-field", "bad-seconds", "bad-outcome",
            "nan-seconds", "inf-seconds", "negative-seconds"])
    def test_read_records_rejects_malformed_row(self, tmp_path, row):
        p = tmp_path / "results.csv"
        p.write_text("# afsat bench\n" + ",".join(CSV_HEADER) + "\n"
                     "probT-001,C2:builtin,solved,0.5\n\n" + row + "\n")
        with pytest.raises(ValueError,
                           match=rf"^bad row in {re.escape(str(p))}, "
                                 r"line 5: "):
            read_records(str(p))

    def test_read_records_checks_the_budget_line(self, tmp_path):
        """A solved row past the budget the first line names is rejected,
        one at the budget is kept, and a CSV without a budget line is read
        as it is."""
        p = tmp_path / "results.csv"
        rows = ",".join(CSV_HEADER) + "\n" + (
            "probT-000,C2:builtin,solved,1.200000\n"
            "probT-000,C3:builtin,timeout,1.200000\n"
            "probT-001,C2:builtin,solved,1.300000\n")
        p.write_text("# afsat 0.1.0 bench; budget_s=1.2\n" + rows)
        with pytest.raises(ValueError,
                           match=rf"^bad row in {re.escape(str(p))}, line 5: "
                                 r"solved in 1\.300000 s, past budget_s=1\.2$"):
            read_records(str(p))
        p.write_text(rows)
        assert [r.seconds for r in read_records(str(p))] == [1.2, 1.2, 1.3]
        for budget in ("abc", "0", "-1", "nan", "inf"):
            p.write_text(f"# afsat 0.1.0 bench; budget_s={budget}\n" + rows)
            with pytest.raises(ValueError,
                               match=rf"^bad budget in {re.escape(str(p))}, "
                                     rf"line 1: '{budget}'$"):
                read_records(str(p))

    def test_read_records_rejects_other_csv(self, tmp_path):
        p = tmp_path / "other.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_records(str(p))


def test_import_leaves_cli_unloaded():
    """The library's harness does not load the command-line module, nor a
    thread pool."""
    code = ("import sys, afsat.bench; print('afsat.cli' in sys.modules, "
            "'concurrent.futures' in sys.modules)")
    package_parent = os.path.dirname(os.path.dirname(afsat.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=package_parent))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
