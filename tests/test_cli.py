import json
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from normpart.cli import COMMANDS, main
from normpart.sepmod import rows_from_csv
from normpart.space import block_lp, intersect_ball, lp, orlicz, schatten

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """The README's CLI block as (files, argv) pairs: ``files`` maps the
    names its heredocs write to their text, ``argv`` is one normpart call."""
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", README.read_text(),
                      re.S | re.M).group(1)
    lines = iter(block.replace("\\\n", " ").strip().splitlines())
    files, examples = {}, []
    for line in lines:
        heredoc = re.match(r"cat > (\S+) <<'(\w+)'$", line)
        if heredoc:
            body = []
            for text in lines:
                if text == heredoc.group(2):
                    break
                body.append(text)
            files[heredoc.group(1)] = "\n".join(body) + "\n"
            continue
        argv = shlex.split(line)
        assert argv[0] == "normpart", line
        examples.append((dict(files), argv[1:]))
    return examples


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vol_example(capsys):
    code, out, _ = run_main(["vol", "--space",
                             '{"kind":"lp","n":3,"p":1}'], capsys)
    assert code == 0
    assert "1.3333333" in out
    assert "# seed=0" in out


def test_pad_prob_exact(capsys):
    code, out, _ = run_main(["pad-prob", "--space",
                             '{"kind":"lp","n":3,"p":2}', "--rho", "0.25",
                             "--exact"], capsys)
    assert code == 0 and "0.216" in out


def test_decompose(capsys):
    code, out, _ = run_main(["decompose", "--n", "42"], capsys)
    assert code == 0 and "factors=6,7" in out and "remainder=0" in out


def test_decompose_large_n(capsys):
    """10^8 exited 3 while n above 2^25 took a product table."""
    code, out, _ = run_main(["decompose", "--n", "100000000"], capsys)
    assert code == 0
    assert out == "n=100000000 factors=7,23,621118 remainder=2\n"


def test_decompose_above_512_bits_exit_3(capsys):
    code, out, err = run_main(["decompose", "--n", str(2 ** 512)], capsys)
    assert code == 3 and "2^512" in err and out == ""


def test_sweep_companion_from_dimension_one(capsys):
    code, out, _ = run_main(["sweep", "--p", "inf", "--dims", "1,2",
                             "--companion"], capsys)
    assert code == 0 and "sep_upper" in out


def test_psi_closed_form(capsys):
    code, out, _ = run_main(["psi", "--space",
                             '{"kind":"lp","n":4,"p":"inf"}',
                             "--w", "1,1,0.5,0"], capsys)
    assert code == 0 and "1.25" in out


@pytest.mark.parametrize("desc,field", [
    ('{"kind":"orlicz_beta","n":3,"beta":"2"}', "beta"),
    ('{"kind":"orlicz_beta","n":3,"beta":[2]}', "beta"),
    ('{"kind":"intersect_ball","n":2,"r":"1",'
     '"base":{"kind":"lp","n":2,"p":1}}', "r"),
    ('{"kind":"block_lp","n":2,"p":2,"blocks":5}', "blocks"),
    ('{"kind":["lp"],"n":2,"p":2}', "kind"),
    ('{"kind":"lp","n":true,"p":2}', "n"),
    ('{"kind":"block_lp","n":2,"p":2,"blocks":{"a":1}}', "blocks")])
def test_descriptor_field_of_the_wrong_json_type_exit_2(desc, field, capsys):
    """Each used to end in a TypeError traceback, or to read true as n = 1,
    or to blame a block named "a" for not being a JSON object."""
    code, out, err = run_main(["vol", "--space", desc], capsys)
    assert code == 2 and out == ""
    assert "input error: %s must be" % field in err


def test_input_error_exit_2(capsys):
    code, _, err = run_main(["vol", "--space", '{"kind":"lp","n":3'], capsys)
    assert code == 2 and "input error" in err
    code, _, err = run_main(["psi", "--space",
                             '{"kind":"lp","n":2,"p":2}'], capsys)
    assert code == 2                       # missing --w
    code, _, err = run_main(["sep-prob", "--space",
                             '{"kind":"lp","n":2,"p":2}',
                             "--u", "0,0", "--v", "1,banana"], capsys)
    assert code == 2
    code, _, err = run_main(["vol", "--space",
                             '{"kind":"lp","n":2,"p":2,"beta":1.0}'], capsys)
    assert code == 2 and "does not use beta" in err


@pytest.mark.parametrize("argv", [
    ["meanwidth", "--space", '{"kind":"lp","n":2,"p":2}', "--workers", "0"],
    ["psi", "--space", '{"kind":"lp","n":2,"p":2}', "--w", "1,0",
     "--workers", "-2"],
    ["vol", "--space", '{"kind":"lp","n":2,"p":2}', "--seed", "-1"],
    ["lw-check", "--seed", "-1"],
    ["vol"], ["decompose"]], ids=" ".join)
def test_bad_or_missing_run_options_exit_2(argv, capsys):
    """--workers below 1 and --seed below 0 ran and exited 0."""
    code, out, err = run_main(argv, capsys)
    assert code == 2 and err.startswith("input error") and out == ""


def test_capability_error_exit_3(capsys):
    code, _, err = run_main(["sep-bounds", "--space",
                             '{"kind":"schatten","n":4,"p":1}'], capsys)
    assert code == 3 and "capability" in err


def test_csv_output_parses_back(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_main(["sep-bounds", "--space",
                           '{"kind":"lp","n":2,"p":2}', "--trials", "5000",
                           "--format", "csv", "--out", str(out_file)], capsys)
    assert code == 0
    rows = rows_from_csv(out_file.read_text())
    assert {r["quantity"] for r in rows} == {"sep_lower", "sep_upper"}
    for r in rows:
        assert r["lower"] is not None and r["upper"] is not None
        assert r["lower"] <= r["upper"] + 1e-9


def test_json_output_includes_seed(capsys):
    code, out, _ = run_main(["vol", "--space", '{"kind":"lp","n":2,"p":2}',
                             "--format", "json", "--seed", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert payload["records"][0]["quantity"] == "volume"


def test_byte_identical_reruns_and_worker_invariance(capsys):
    pad = ["pad-prob", "--space", '{"kind":"lp","n":2,"p":1}',
           "--rho", "0.3", "--trials", "20000", "--seed", "3",
           "--format", "csv"]
    sep = ["sep-prob", "--space", '{"kind":"lp","n":3,"p":1}',
           "--u", "0,0,0", "--v", "0.5,0.3,0", "--delta", "2",
           "--trials", "20000", "--seed", "3", "--format", "csv"]
    for args in (pad, sep):
        _, out1, _ = run_main(args, capsys)
        _, out2, _ = run_main(args, capsys)
        assert out1 == out2
        _, out3, _ = run_main(args + ["--workers", "4"], capsys)
        assert out1 == out3


def test_sep_prob_mc_and_exact_agree(capsys):
    base = ["sep-prob", "--space", '{"kind":"lp","n":2,"p":"inf"}',
            "--u", "0,0", "--v", "1,0", "--delta", "2",
            "--format", "json"]
    code, out, _ = run_main(base + ["--exact"], capsys)
    exact = float(json.loads(out)["records"][0]["value"])
    assert exact == pytest.approx(2.0 / 3.0)
    code, out, _ = run_main(base + ["--trials", "20000"], capsys)
    mc = float(json.loads(out)["records"][0]["value"])
    assert abs(mc - exact) < 0.02


def test_sweep_command(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_main(["sweep", "--p", "2", "--dims", "3,6",
                           "--trials", "8000", "--format", "csv",
                           "--out", str(out_file)], capsys)
    assert code == 0
    rows = rows_from_csv(out_file.read_text())
    quantities = {r["quantity"] for r in rows}
    assert {"sep_lower", "sep_upper", "iq"} <= quantities
    assert any(q.startswith("slope_") for q in quantities)


def test_extend_command(tmp_path, capsys):
    payload = {"anchors": [[0.0, 0.0], [1.0, 0.0]], "values": [[0.0], [1.0]]}
    f = tmp_path / "anchors.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run_main(["extend", "--space",
                             '{"kind":"lp","n":2,"p":2}',
                             "--anchors", str(f), "--point", "0.5,0.2",
                             "--mc-rounds", "8"], capsys)
    assert code == 0 and "value:" in out and "weights:" in out


def test_extend_mc_rounds_below_one_exit_2(tmp_path, capsys):
    f = tmp_path / "anchors.json"
    f.write_text(json.dumps({"anchors": [[0.0, 0.0], [1.0, 0.0]],
                             "values": [[0.0], [1.0]]}))
    base = ["extend", "--space", '{"kind":"lp","n":2,"p":2}',
            "--anchors", str(f), "--point", "0.3,0.3"]
    for rounds in ("0", "-2"):
        code, out, err = run_main(base + ["--mc-rounds", rounds], capsys)
        assert code == 2 and "mc_rounds" in err and out == ""


GOOD_ANCHORS = {"anchors": [[0.0, 0.0], [1.0, 0.0]], "values": [0.0, 1.0]}


@pytest.mark.parametrize("payload,point,message", [
    (GOOD_ANCHORS, "inf,0", "finite"),
    (GOOD_ANCHORS, "nan,0", "finite"),
    (GOOD_ANCHORS, "1,2,3", "shape"),
    ({"anchors": [["inf", 0.0], [1.0, 0.0]], "values": [0.0, 1.0]}, "0.5,0",
     "finite"),
    ({"anchors": [[0.0, 0.0], [1.0, 0.0]], "values": ["nan", 1.0]}, "0.5,0",
     "finite"),
    ({"anchors": {"x": 1}, "values": [[0]]}, "0.5,0", "anchors"),
    ({"anchors": [[0.0, 0.0]], "values": {"x": 1}}, "0.5,0", "values"),
], ids=["inf point", "nan point", "long point", "inf anchor", "nan value",
        "object anchors", "object values"])
def test_extend_bad_input_exit_2(payload, point, message, tmp_path, capsys):
    # these crashed with a traceback, failed inside numpy, or printed a
    # value of 1.0 or nan and exited 0
    f = tmp_path / "anchors.json"
    f.write_text(json.dumps(payload))
    code, out, err = run_main(["extend", "--space",
                               '{"kind":"lp","n":2,"p":2}', "--anchors",
                               str(f), "--point", point, "--mc-rounds", "4"],
                              capsys)
    assert code == 2 and out == "" and "input error" in err
    assert message in err


def test_extend_far_point(tmp_path, capsys):
    # the p = 2 norm of the point used to overflow and crash the command
    f = tmp_path / "anchors.json"
    f.write_text(json.dumps({"anchors": [[0.0, 0.0]], "values": [2.0]}))
    code, out, _ = run_main(["extend", "--space", '{"kind":"lp","n":2,"p":2}',
                             "--anchors", str(f), "--point", "1e300,0",
                             "--mc-rounds", "4"], capsys)
    assert code == 0 and "value: 2.0" in out


def test_lw_check_command(capsys):
    code, out, _ = run_main(["lw-check", "--trials", "50", "--seed", "2"],
                            capsys)
    assert code == 0 and "loomis_whitney_holds" in out


def test_sep_prob_nonpositive_delta_exit_2(capsys):
    base = ["sep-prob", "--space", '{"kind":"lp","n":2,"p":2}',
            "--u", "0,0", "--v", "1,0", "--trials", "100"]
    # at 1e-320, 2/delta overflows: --exact warned, printed 1 and exited 0
    for delta in ("0", "-2", "1e-320"):
        for extra in ([], ["--exact"]):
            code, _, err = run_main(base + ["--delta", delta] + extra, capsys)
            assert code == 2 and "delta" in err


def test_sep_prob_points_that_are_not_finite_exit_2(capsys):
    base = ["sep-prob", "--space", '{"kind":"lp","n":2,"p":3}',
            "--v", "0,0", "--delta", "2", "--trials", "100"]
    for u in ("nan,0", "inf,0"):
        for extra in ([], ["--exact"]):
            code, out, err = run_main(base + ["--u", u] + extra, capsys)
            assert code == 2 and "finite" in err and out == ""


def test_sep_prob_points_of_the_wrong_length_exit_2(capsys):
    base = ["sep-prob", "--space", '{"kind":"lp","n":2,"p":2}',
            "--u", "0,0,0", "--v", "0,0,0", "--trials", "100"]
    for extra in ([], ["--exact"]):
        code, out, err = run_main(base + extra, capsys)
        assert code == 2 and "length 2" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["vol", "--space", '{"kind":"lp","n":2,"p":2}', "--mc"],
    ["iq", "--space", '{"kind":"lp","n":3,"p":3}', "--mc"],
    ["psi", "--space", '{"kind":"lp","n":3,"p":3}', "--w", "1,0,0"],
    ["maxproj", "--space", '{"kind":"lp","n":3,"p":3}'],
    ["cone", "--space", '{"kind":"lp","n":2,"p":2}'],
    ["cone", "--space", '{"kind":"schatten","n":4,"p":2}'],
    ["meanwidth", "--space", '{"kind":"lp","n":2,"p":2}'],
    ["sep-prob", "--space", '{"kind":"lp","n":2,"p":2}',
     "--u", "0,0", "--v", "1,0"],
    ["pad-prob", "--space", '{"kind":"lp","n":2,"p":2}'],
    # closed forms, which read no trial
    pytest.param(["psi", "--space", '{"kind":"lp","n":3,"p":2}',
                  "--w", "1,0,0"], id="psi-l2"),
    pytest.param(["maxproj", "--space", '{"kind":"lp","n":3,"p":2}'],
                 id="maxproj-l2"),
    ["sep-bounds", "--space", '{"kind":"lp","n":3,"p":"inf"}'],
    ["sweep", "--p", "inf", "--dims", "4,8"],
    ["lw-check"]],
    ids=lambda argv: "-".join(argv[:1] + re.findall(r'"kind":"(\w+)"',
                                                     " ".join(argv))))
def test_trials_below_one_exit_2(argv, capsys):
    for trials in ("0", "-3"):
        code, out, err = run_main(argv + ["--trials", trials], capsys)
        assert code == 2 and "input error" in err and out == ""


@pytest.mark.parametrize("w", ["1,nan,0", "1,inf,0", "0,-inf,0"])
def test_psi_direction_that_is_not_finite_exit_2(w, capsys):
    code, out, err = run_main(["psi", "--space", '{"kind":"lp","n":3,"p":3}',
                               "--w", w], capsys)
    assert code == 2 and "not finite" in err and out == ""


def test_psi_far_from_unit_scale(capsys):
    lp3 = '{"kind":"lp","n":3,"p":3}'
    for w in ("1e308,1e308,0", "1e-300,1e-300,0"):
        code, out, _ = run_main(["psi", "--space", lp3, "--w", w,
                                 "--trials", "20000", "--format", "csv"],
                                capsys)
        row, = rows_from_csv(out)
        assert code == 0 and np.isfinite(row["value"])
        assert np.isfinite(row["stderr"]) and row["stderr"] > 0
    code, out, err = run_main(["psi", "--space", lp3, "--w",
                               "1.7e308,1.7e308,1.7e308", "--trials", "1000"],
                              capsys)
    assert code == 2 and "float range" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["maxproj", "--space", '{"kind":"lp","n":3,"p":3}'],
    ["sep-bounds", "--space", '{"kind":"lp","n":3,"p":3}'],
    ["sweep", "--p", "3", "--dims", "3,4"]], ids=lambda argv: argv[0])
def test_restarts_below_zero_exit_2(argv, capsys):
    for restarts in ("-1", "-3"):
        code, out, err = run_main(argv + ["--restarts", restarts,
                                          "--trials", "1000"], capsys)
        assert code == 2 and "restarts" in err and out == ""


def test_vol_outside_float_range_exit_3(capsys):
    for desc in ('{"kind":"lp","n":1100,"p":"inf"}',
                 '{"kind":"lp","n":500,"p":2}'):
        code, out, err = run_main(["vol", "--space", desc], capsys)
        assert code == 3 and "log_volume_exact" in err and out == ""


def test_cone_out_keeps_sample_dump(tmp_path, capsys):
    out_file = tmp_path / "cone.csv"
    code, out, _ = run_main(["cone", "--space", '{"kind":"lp","n":3,"p":1}',
                             "--trials", "50", "--seed", "4",
                             "--out", str(out_file)], capsys)
    assert code == 0 and "cone_abs_coord_mean" in out
    lines = out_file.read_text().splitlines()
    assert lines[:2] == ["# seed=4", "x0,x1,x2,weight"]
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[2:]])
    assert rows.shape == (50, 4)
    assert np.allclose(np.abs(rows[:, :3]).sum(axis=1), 1.0)
    assert np.all(rows[:, 3] == 1.0)


def test_cone_summary_uses_the_weights(tmp_path, capsys):
    # Schatten cone samples carry Jacobian weights: the printed mean of
    # |x_0| is the weighted mean of the dumped samples
    out_file = tmp_path / "cone.csv"
    code, out, _ = run_main(["cone", "--space", '{"kind":"schatten","n":4,'
                             '"p":2.5}', "--trials", "2000", "--seed", "4",
                             "--format", "csv", "--out", str(out_file)],
                            capsys)
    assert code == 0
    row, = rows_from_csv(out)
    dump = np.loadtxt(out_file, delimiter=",", skiprows=2)
    f, w = np.abs(dump[:, 0]), dump[:, 4]
    assert np.ptp(w) > 0.0
    assert row["value"] == pytest.approx((w * f).sum() / w.sum(), rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["vol", "--rho", "0.3"], ["vol", "--r", "1"], ["iq", "--delta", "1"],
    ["psi", "--rho", "0.3"], ["maxproj", "--workers", "2"],
    ["cone", "--workers", "2"], ["meanwidth", "--mc"],
    ["sep-prob", "--rho", "0.3"], ["pad-prob", "--delta", "1"],
    ["sep-bounds", "--exact"], ["sweep", "--space", "{}"],
    ["extend", "--format", "csv"], ["lw-check", "--space", "{}"],
    ["decompose", "--space", "{}"]], ids=" ".join)
def test_option_the_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unreadable_anchor_file_exit_2(tmp_path, capsys):
    code, _, err = run_main(["extend", "--space", '{"kind":"lp","n":2,"p":2}',
                             "--anchors", str(tmp_path / "missing.json"),
                             "--point", "0.3,0.3"], capsys)
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("files,argv", [
    pytest.param(files, argv, id=argv[0])
    for files, argv in readme_cli_examples()])
def test_readme_cli_example(files, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run_main(argv, capsys)
    assert code == 0, err


def test_table_kind_column_fits_every_kind(capsys):
    """Every row of the table puts its n under the header's n, the
    orlicz_beta rows of the companion too: the kind column is as wide as
    the longest kind name."""
    code, out, _ = run_main(["sweep", "--p", "inf", "--dims", "1,2",
                             "--companion"], capsys)
    assert code == 0
    header, *rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    end = re.match(r"kind +n ", header).end()
    assert any(row.startswith("orlicz_beta") for row in rows)
    for row in rows:
        assert re.match(r"\S+ +\d+ ", row).end() == end, row


def _smoke_runs(desc, anchors):
    """Every command that reads a space, in each of its forms, on desc at
    small counts."""
    sp = ["--space", desc.to_json()]
    run = ["--trials", "200", "--seed", "3"]
    u, v = ",".join(["0"] * desc.n), ",".join(["0.3"] * desc.n)
    return [
        ["vol", *sp, *run], ["vol", *sp, "--mc", *run],
        ["iq", *sp, *run], ["iq", *sp, "--mc", *run],
        ["psi", *sp, "--w", v, *run], ["psi", *sp, "--w", v, "--mc", *run],
        ["maxproj", *sp, "--restarts", "2", *run],
        ["cone", *sp, *run],
        ["meanwidth", *sp, *run],
        ["sep-prob", *sp, "--u", u, "--v", v, *run],
        ["sep-prob", *sp, "--u", u, "--v", v, "--exact", *run],
        ["pad-prob", *sp, *run], ["pad-prob", *sp, "--exact", *run],
        ["sep-bounds", *sp, "--restarts", "2", *run],
        ["extend", *sp, "--anchors", anchors, "--point", v,
         "--mc-rounds", "2", "--seed", "3"]]


SPACE_FREE_RUNS = [
    ["sweep", "--p", "3", "--dims", "2,3", "--restarts", "2",
     "--trials", "200"],
    ["sweep", "--p", "inf", "--dims", "2,3", "--companion",
     "--restarts", "2", "--trials", "200"],
    ["lw-check", "--trials", "5"],
    ["decompose", "--n", "42"]]


def _check_smoke_run(argv, capsys, lacks_capability=False):
    """The run exits 0, or 3 with a capability error where the space lacks
    what the command needs, and raises no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_main(argv, capsys)
    if lacks_capability:
        assert code == 3 and err.startswith("capability error"), (argv, err)
    else:
        assert code == 0, (argv, code, err)


def test_the_smoke_runs_cover_every_command():
    runs = _smoke_runs(lp(1, 2), "anchors.json") + SPACE_FREE_RUNS
    assert {argv[0] for argv in runs} == set(COMMANDS)


@pytest.mark.parametrize("desc", [
    lp(3, 3), block_lp(2, [lp(2, 1), orlicz(2, 1.5)]), orlicz(3, 1.5),
    schatten(2, 3), intersect_ball(lp(3, 1), 0.8)],
    ids=lambda d: d.kind)
def test_every_command_runs_on_a_small_space_of_each_kind(desc, tmp_path,
                                                          capsys):
    """`sep-bounds` exits 3 where its lower bound lacks an exact volume or
    a canonical position (the block sum of unequal blocks, the Schatten and
    the intersect_ball space); every other run exits 0."""
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({
        "anchors": [[0.0] * desc.n, [0.5] + [0.0] * (desc.n - 1)],
        "values": [[0.0], [1.0]]}))
    bounded = desc.has_exact_volume and desc.is_canonically_positioned
    for argv in _smoke_runs(desc, str(anchors)):
        _check_smoke_run(argv, capsys,
                         lacks_capability=argv[0] == "sep-bounds"
                         and not bounded)


@pytest.mark.parametrize("argv", SPACE_FREE_RUNS, ids=" ".join)
def test_every_space_free_command_runs(argv, capsys):
    _check_smoke_run(argv, capsys)


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "normpart.cli", "vol",
                           "--space", '{"kind":"lp","n":2,"p":1}'],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "2" in proc.stdout


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only (tests/oracles.py)."""
    code = ("import sys, normpart.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
