import hashlib
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd
from bdlimits import io as bio
from bdlimits.cli import build_parser, cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_config_happy_path(tmp_path):
    path = write(tmp_path, "a.cfg", "# hi\nschema=1\nfoo = 3\nbar = x,y\n")
    assert bio.read_config(path) == {"foo": "3", "bar": "x,y"}


def test_read_config_requires_schema_header(tmp_path):
    with pytest.raises(bd.ConfigError):
        bio.read_config(write(tmp_path, "a.cfg", "foo = 3\n"))
    with pytest.raises(bd.ConfigError):
        bio.read_config(write(tmp_path, "b.cfg", "schema=2\nfoo=3\n"))
    with pytest.raises(bd.ConfigError):
        bio.read_config(write(tmp_path, "c.cfg", "# nothing\n"))


def test_read_config_rejects_duplicates_and_garbage(tmp_path):
    with pytest.raises(bd.ConfigError, match="duplicate"):
        bio.read_config(write(tmp_path, "a.cfg", "schema=1\nx=1\nx=2\n"))
    with pytest.raises(bd.ConfigError, match="key=value"):
        bio.read_config(write(tmp_path, "b.cfg", "schema=1\nnonsense\n"))
    with pytest.raises(bd.ConfigError, match="not found"):
        bio.read_config(str(tmp_path / "missing.cfg"))


def test_config_view_typing_and_unknown_fields():
    view = bio.ConfigView({"n": "3", "x": "0.5", "v": "1,2,3", "junk": "1"})
    assert view.get_int("n") == 3
    assert view.get_float("x") == 0.5
    assert np.array_equal(view.get_vector("v"), [1.0, 2.0, 3.0])
    with pytest.raises(bd.ConfigError, match="junk"):
        view.reject_unknown()
    with pytest.raises(bd.ConfigError, match="missing"):
        view.get_str("absent", required=True)
    bad = bio.ConfigView({"n": "three"})
    with pytest.raises(bd.ConfigError, match="integer"):
        bad.get_int("n")
    # an int past int64 parses, as no finite test applies to it
    huge = bio.ConfigView({"cap": "9" * 400})
    assert huge.optional(cap=int) == {"cap": int("9" * 400)}
    # every entry of a vector must parse; none is dropped
    for raw in ("1.0,,0.5", ",", "1.0,"):
        with pytest.raises(bd.ConfigError, match="'v' must be comma-separated numbers"):
            bio.ConfigView({"v": raw}).get_vector("v")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_config_view_rejects_non_finite(raw):
    view = bio.ConfigView({"x": raw, "v": f"1.0,{raw},2.0"})
    with pytest.raises(bd.ConfigError, match="finite"):
        view.get_float("x")
    with pytest.raises(bd.ConfigError, match="finite"):
        view.get_vector("v")


def test_simulate_rejects_non_finite_horizon(tmp_path, capsys):
    # max_events bounds the run if the horizon check ever regresses
    for raw in ("nan", "inf"):
        cfg = write(
            tmp_path,
            f"{raw}.cfg",
            "schema=1\ngraph = s.g\nab = zero\nad = zero\nl = 0\nr = 1\n"
            f"t_end = {raw}\nmax_events = 1000\n",
        )
        (tmp_path / "s.g").write_text("n 1\n")
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / raw]) == 1
        assert "t_end" in capsys.readouterr().err


def test_parse_matrix_forms():
    g = bd.path_graph(2)
    view = bio.ConfigView(
        {
            "z": "zero",
            "abm": "alpha_beta:-2,0.5",
            "d": "diag:1,2",
            "dense": "dense:0,0.3;0.3,0",
            "bad": "sparse:1",
            "badpattern": "dense:0,0;0,0;0,0",
            "shortdiag": "diag:1",
            "garbled": "dense:0,x;0.3,0",
        }
    )
    assert np.array_equal(bio.parse_matrix(view, "z", g), np.zeros((2, 2)))
    m = bio.parse_matrix(view, "abm", g)
    assert m[0, 0] == -2.0 and m[0, 1] == 0.5
    assert np.array_equal(np.diag(bio.parse_matrix(view, "d", g)), [1.0, 2.0])
    assert bio.parse_matrix(view, "dense", g)[1, 0] == 0.3
    with pytest.raises(bd.ConfigError, match="unknown matrix form"):
        bio.parse_matrix(view, "bad", g)
    with pytest.raises(bd.DimensionMismatchError):
        bio.parse_matrix(view, "badpattern", g)
    with pytest.raises(bd.ConfigError, match="diag needs 2 entries, got 1"):
        bio.parse_matrix(view, "shortdiag", g)
    with pytest.raises(bd.ConfigError, match="field 'garbled': could not parse"):
        bio.parse_matrix(view, "garbled", g)


# text that reaches the number parsers more often than arbitrary text does
_NUMBER_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="0123456789.,;:-+eE xinfaINFAN_"),
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats().map(repr)).map(",".join),
)


@given(
    st.one_of(
        st.text(),
        st.lists(st.tuples(st.text(), st.text())).map(
            lambda pairs: "schema=1\n" + "\n".join(f"{k}={v}" for k, v in pairs)
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_read_config_parses_or_raises_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            entries = bio.read_config(path)
        except bd.ConfigError:
            return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in entries.items())


@given(_NUMBER_TEXT, st.sampled_from(["get_int", "get_float", "get_vector"]))
@settings(max_examples=300, deadline=None)
def test_config_view_getters_parse_or_raise_validation_error(raw, getter):
    try:
        value = getattr(bio.ConfigView({"k": raw}), getter)("k")
    except bd.ValidationError:
        return
    if getter == "get_int":
        assert isinstance(value, int)
    else:
        assert np.isfinite(value).all() and np.ndim(value) == (getter == "get_vector")


@given(
    st.one_of(
        st.text(),
        st.tuples(st.sampled_from(["zero", "alpha_beta", "diag", "dense"]), _NUMBER_TEXT).map(
            ":".join
        ),
    ),
    st.sampled_from([bd.single_vertex(), bd.path_graph(2), bd.path_graph(3)]),
)
@settings(max_examples=300, deadline=None)
def test_parse_matrix_parses_or_raises_validation_error(raw, graph):
    try:
        matrix = bio.parse_matrix(bio.ConfigView({"m": raw}), "m", graph)
    except bd.ValidationError:
        return
    n = graph.num_vertices
    assert matrix.shape == (n, n) and np.isfinite(matrix).all()


def test_csv_float_formatting_is_repr(tmp_path):
    out = tmp_path / "s.csv"
    bio.write_scalar_csv(out, "third", 1 / 3)
    text = out.read_text()
    assert repr(1 / 3) in text
    assert text.endswith("\n") and "\r" not in text


def run_cli(args):
    return cli_main([str(a) for a in args])


def test_classify_star_summary(tmp_path, capsys):
    code = run_cli(
        ["classify", "--graph", os.path.join(CONFIG_DIR, "star5.g"),
         "--alpha", "-3", "--beta", "1", "--out", tmp_path / "out"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "classify ok pd=true min_eig=1.0 method=closed_form_star" in captured.out
    report = (tmp_path / "out" / "spectral_report.csv").read_text().splitlines()
    assert report[0] == "method,pd,min_eig,max_eig"
    assert report[1].startswith("closed_form_star,true,1.0,")
    eigs = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
    assert eigs == ["eigenvalue", "1.0", "3.0", "3.0", "3.0", "5.0"]


@pytest.mark.parametrize(
    "graph, alpha, beta",
    [("path3.g", "-3", "nan"), ("star5.g", "nan", "1"), ("path3.g", "-3", "inf")],
)
def test_classify_non_finite_coefficient_exits_one(tmp_path, capsys, graph, alpha, beta):
    code = run_cli(
        ["classify", "--graph", os.path.join(CONFIG_DIR, graph),
         "--alpha", alpha, "--beta", beta, "--out", tmp_path / "out"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "finite" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_spectrum_subcommand(tmp_path, capsys):
    code = run_cli(
        ["spectrum", "--graph", os.path.join(CONFIG_DIR, "cycle3.g"),
         "--alpha", "-3", "--beta", "1", "--out", tmp_path / "out"]
    )
    assert code == 0
    assert "spectrum ok pd=true" in capsys.readouterr().out


def test_gibbs_subcommand_two_site(tmp_path, capsys):
    code = run_cli(
        ["gibbs", "--spec", os.path.join(CONFIG_DIR, "two_site.cfg"),
         "--out", tmp_path / "out"]
    )
    assert code == 0
    assert "gibbs ok states=4" in capsys.readouterr().out
    lines = (tmp_path / "out" / "gibbs.csv").read_text().splitlines()
    assert lines[0] == "state_index,spin_0,spin_1,probability"
    assert len(lines) == 5
    probs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_stationary_and_balance_subcommands(tmp_path, capsys):
    spec_path = os.path.join(CONFIG_DIR, "two_site.cfg")
    assert run_cli(["stationary", "--config", spec_path, "--out", tmp_path / "s"]) == 0
    assert run_cli(["balance-check", "--config", spec_path, "--out", tmp_path / "b"]) == 0
    out = capsys.readouterr().out
    assert "stationary ok states=4" in out
    assert "balance-check ok residual=" in out
    assert (tmp_path / "s" / "stationary.csv").exists()
    assert (tmp_path / "b" / "balance.csv").exists()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_interaction_entry_exits_one(tmp_path, capsys, raw):
    (tmp_path / "p2.g").write_text("n 2\ne 0 1\n")
    cfg = write(
        tmp_path, f"{raw}.cfg",
        f"schema=1\ngraph = p2.g\nab = diag:{raw},0\nad = zero\nl = 0\nr = 1\n"
        "t_end = 1.0\ninitial = 0,0\nseed = 0\nmax_events = 1000\n",
    )
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "sim"]) == 1
    assert "not finite" in capsys.readouterr().err
    cfg = write(
        tmp_path, f"{raw}_stationary.cfg",
        f"schema=1\ngraph = p2.g\nab = diag:{raw},0\nad = zero\nl = 0\nr = 1\n",
    )
    assert run_cli(["stationary", "--config", cfg, "--out", tmp_path / "st"]) == 1
    assert "not finite" in capsys.readouterr().err


def test_missing_config_exits_one(capsys):
    assert run_cli(["gibbs", "--config", "/nonexistent/x.cfg"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli(["gibbs"]) == 1
    assert "error: missing required flag --config" in capsys.readouterr().err


def test_bad_graph_or_config_file_exits_one(tmp_path, capsys):
    write(tmp_path, "letters.g", "n x\n")
    write(tmp_path, "fraction.g", "n 2\ne 0 1.5\n")
    spectral = ["--alpha", "-3", "--beta", "1", "--out", tmp_path / "out"]
    for name, message in (
        ("letters.g", "line 1: non-integer"),
        ("fraction.g", "line 2: non-integer"),
        ("missing.g", "graph file not found"),
        ("", "graph file unreadable"),
    ):
        assert run_cli(["classify", "--graph", tmp_path / name, *spectral]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert run_cli(["gibbs", "--config", tmp_path]) == 1
    assert "config file unreadable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SUBCOMMANDS = ("simulate", "stationary", "gibbs", "balance-check", "spectrum", "classify",
               "exp-diffusion", "exp-fluid", "gen-check")


def test_usage_error_exits_one(capsys):
    # cli_main builds only the subparser that argv[0] names, and all nine
    # otherwise: help and usage errors must still list every subcommand
    assert run_cli(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'no-such-command'" in err
    assert all(f"'{name}'" in err for name in SUBCOMMANDS)
    assert run_cli([]) == 1
    assert "required: subcommand" in capsys.readouterr().err
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bdlimits ") and all(name in out for name in SUBCOMMANDS)
    for name in SUBCOMMANDS:
        assert run_cli([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: bdlimits {name} ")
    # a flag that only another subcommand takes
    assert run_cli(["gibbs", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert "{" + ",".join(SUBCOMMANDS) + "}" in build_parser().format_usage()
    assert "{gibbs}" in build_parser("gibbs").format_usage()


def test_seed_must_be_unsigned_64_bit(capsys):
    cfg = os.path.join(CONFIG_DIR, "sim_two_site.cfg")
    assert run_cli(["simulate", "--config", cfg, "--seed", "-1"]) == 1
    assert run_cli(["simulate", "--config", cfg, "--seed", str(2**64)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err


def test_unknown_config_field_exits_one(tmp_path, capsys):
    cfg = write(
        tmp_path, "bad.cfg",
        "schema=1\ngraph = g.g\nab = zero\nad = zero\nl = 0\nr = 1\nwhoops = 1\n",
    )
    (tmp_path / "g.g").write_text("n 1\n")
    assert run_cli(["gibbs", "--config", cfg]) == 1
    assert "whoops" in capsys.readouterr().err


def test_asymmetric_gibbs_exits_one(tmp_path, capsys):
    cfg = write(
        tmp_path, "asym.cfg",
        "schema=1\ngraph = p2.g\nab = dense:0,0.4;0.1,0\nad = zero\nl = 0\nr = 1\n",
    )
    (tmp_path / "p2.g").write_text("n 2\ne 0 1\n")
    assert run_cli(["gibbs", "--config", cfg]) == 1


def test_rate_overflow_exits_two(tmp_path, capsys):
    cfg = write(
        tmp_path, "hot.cfg",
        "schema=1\ngraph = s.g\nab = diag:800\nad = zero\nl = 0\nr = 2\n"
        "t_end = 1.0\ninitial = 1\nseed = 0\n",
    )
    (tmp_path / "s.g").write_text("n 1\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_fluid_overflow_exits_two(tmp_path, capsys):
    # gamma' = e^gamma from gamma = 5 blows up long before t = 50, so the
    # RK4 reference path fails before any output is written
    cfg = write(
        tmp_path, "hot.cfg",
        "schema=1\ngraph = s.g\nab = diag:1\nad = zero\nu = 5.0\nt = 50.0\n"
        "levels = 2\n",
    )
    (tmp_path / "s.g").write_text("n 1\n")
    assert run_cli(["exp-fluid", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "at t=" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fluid_grid_past_memory_exits_one(tmp_path, capsys):
    # 10^13 RK4 steps cannot be stored, so exp-fluid refuses before allocating
    cfg = write(
        tmp_path, "fine.cfg",
        "schema=1\ngraph = s.g\nab = zero\nad = diag:1\nu = 1.0\nt = 1.0\n"
        "ode_dt = 1e-13\nlevels = 2\n",
    )
    (tmp_path / "s.g").write_text("n 1\n")
    assert run_cli(["exp-fluid", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "10000000000000 RK4 steps" in err
    assert not (tmp_path / "o").exists()


# configs whose schedule or grid would be allocated at a size no machine
# holds: each must be refused with an error: line before numpy is asked
_OVERSIZED_CONFIGS = {
    "levels-trillion": ("exp-diffusion", "s.g", "u = 1.0\nt = 1.0\nlevels = 1000000000000\n"),
    "levels-past-int64": ("exp-diffusion", "s.g", "u = 1.0\nt = 1.0\nlevels = 1100\n"),
    "fluid-grid-points": (
        "exp-fluid", "s.g", "u = 1.0\nt = 2.0\nlevels = 2\ngrid_points = 1000000000000\n"
    ),
    "gen-check-grid-points": (
        "gen-check", "p.g",
        "center = 0.0,0.0,0.0\nradius = 2.0\nlevels = 2\ncoarsest_log2_eps = -3\n"
        "grid_points = 10000000\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED_CONFIGS))
def test_oversized_schedule_or_grid_exits_one(tmp_path, capsys, case):
    sub, graph, body = _OVERSIZED_CONFIGS[case]
    (tmp_path / "s.g").write_text("n 1\n")
    (tmp_path / "p.g").write_text("n 3\ne 0 1\ne 1 2\n")
    ad = "diag:1" if graph == "s.g" else "diag:1,1,1"
    cfg = write(
        tmp_path, "big.cfg", f"schema=1\ngraph = {graph}\nab = zero\nad = {ad}\n{body}"
    )
    # numpy's overflow and cast warnings would be raised as errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# configs that break one schedule or experiment rule on a one-vertex model,
# with the exit code and a text of the message; none may leave a traceback
_REFUSED_CONFIGS = {
    "default-box-past-int64": (
        "exp-diffusion", "u = 1.0\nt = 0.5\nepsilons = 0.5,1e-10\n", 1,
        "epsilons [1e-10] are at or below 2^-31.5",
    ),
    "box-sizes-with-levels": (
        "exp-diffusion", "u = 1.0\nt = 0.5\nlevels = 2\nbox_sizes = 5,7\n", 1,
        "unknown field(s): box_sizes",
    ),
    "fluid-horizon-past-float": (
        "exp-fluid", "u = 1.0\nt = 1e308\nlevels = 2\n", 1, "dt=0.001, t_end=1e+308",
    ),
    "bump-past-the-box": (
        "gen-check", "radius = 1e308\nlevels = 2\n", 1, "half-width 4.0 at level 0",
    ),
    "bump-radius-below-the-floor": (
        "gen-check", "radius = 1e-200\nlevels = 2\n", 1, "radius=1e-200",
    ),
    "diffusion-eps-square-past-float": (
        "exp-diffusion", "u = 1.0\nt = 0.5\nepsilons = 1e160,1e159\nbox_sizes = 1,100\n", 1,
        "epsilons [1e+160, 1e+159] are at or above 2^512",
    ),
    "gen-check-eps-square-past-float": (
        "gen-check", "radius = 1e-150\nepsilons = 1e160,1e159\nbox_sizes = 1,100\n", 1,
        "epsilons [1e+160, 1e+159] are at or above 2^512",
    ),
    "gen-check-non-finite-ratio": (
        "gen-check", "radius = 1e-150\nlevels = 2\ncoarsest_log2_eps = -28\n", 2,
        "ratio to eps is not finite",
    ),
    "diffusion-replicas-past-float": (
        "exp-diffusion", f"u = 1.0\nt = 0.5\nlevels = 2\nreplicas = {'9' * 400}\n", 2,
        "projected",
    ),
    "fluid-replicas-past-float": (
        "exp-fluid", f"u = 1.0\nt = 0.5\nlevels = 2\nreplicas = {'9' * 400}\n", 2,
        "projected",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_CONFIGS))
def test_refused_config_exits_with_its_error(tmp_path, capsys, case):
    sub, body, code, text = _REFUSED_CONFIGS[case]
    (tmp_path / "s.g").write_text("n 1\n")
    cfg = write(tmp_path, "c.cfg", f"schema=1\ngraph = s.g\nab = zero\nad = diag:1\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 1 else "numeric failure:")
    assert text in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_fluid_guard_overflow_exits_two_with_warnings_as_errors(tmp_path, capsys):
    # the second RK4 stage from gamma = 699.9 has an exponent near 1e303,
    # whose square overflows the guard: still a numeric failure, not a crash
    cfg = write(
        tmp_path, "edge.cfg",
        "schema=1\ngraph = s.g\nab = diag:1\nad = zero\nu = 699.9\nt = 1.0\n"
        "ode_dt = 0.1\nlevels = 2\n",
    )
    (tmp_path / "s.g").write_text("n 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["exp-fluid", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "at t=0.05" in capsys.readouterr().err


def test_zero_drift_diffusion_past_the_float_range_exits_two(tmp_path, capsys):
    # the exact law of du = sqrt(2) dW at t = 1e308 has variance 2e308
    (tmp_path / "s.g").write_text("n 1\n")
    cfg = write(
        tmp_path, "free.cfg",
        "schema=1\ngraph = s.g\nab = zero\nad = zero\nu = 1.0\nt = 1e308\nlevels = 2\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: transition law overflows at t=1e+308")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub", ["stationary", "gibbs", "balance-check"])
def test_chain_subcommands_past_an_explicit_cap_exit_one(tmp_path, capsys, sub):
    # two_site.cfg has 4 states
    with open(os.path.join(CONFIG_DIR, "two_site.cfg")) as fh:
        body = fh.read()
    graph = os.path.abspath(os.path.join(CONFIG_DIR, "path2.g"))
    cfg = write(tmp_path, "capped.cfg", body.replace("path2.g", graph) + "cap = 3\n")
    assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 4 configurations exceed the cap of 3")
    assert not (tmp_path / "o").exists()


def test_stationary_past_physical_memory_exits_one(tmp_path, capsys, monkeypatch):
    # two_site.cfg: 4 states at bandwidth 2, whose float64 factor counts
    # 16 bytes per state and unit of bandwidth
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 16 * 4 * 2 - 1)
    cfg = os.path.join(CONFIG_DIR, "two_site.cfg")
    assert run_cli(["stationary", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: the float64 LU factor of 4 states at bandwidth 2 needs about 128 bytes, "
        "past physical memory"
    )
    assert not (tmp_path / "o").exists()


def test_gen_check_far_neighbours_exit_zero_with_warnings_as_errors(tmp_path, capsys):
    # at eps = 1e5 the lattice neighbours lie 1e155 radii from the bump
    (tmp_path / "s.g").write_text("n 1\n")
    cfg = write(
        tmp_path, "far.cfg",
        "schema=1\ngraph = s.g\nab = zero\nad = diag:1\nradius = 1e-150\n"
        "epsilons = 1e5,1e4\nbox_sizes = 1,100\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["gen-check", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().out.startswith("gen-check ok levels=2 ")


def test_classify_graph_past_physical_memory_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 8 * 5**2 - 1)
    code = run_cli(
        ["classify", "--graph", os.path.join(CONFIG_DIR, "star5.g"),
         "--alpha", "-3", "--beta", "1", "--out", tmp_path / "out"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "200 bytes, past physical memory" in err
    assert not (tmp_path / "out").exists()


def test_simulate_record_past_physical_memory_exits_two(tmp_path, capsys, monkeypatch):
    # sim_two_site.cfg runs 103 events; a record of 84 bytes an event stops at 50
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 84 * 50)
    cfg = os.path.join(CONFIG_DIR, "sim_two_site.cfg")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "physical memory (4200 bytes)" in err
    assert not (tmp_path / "o").exists()


def test_simulate_deterministic_csv(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "sim_two_site.cfg")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    assert a.splitlines()[0] == b"t,vertex,sign"


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "sim_two_site.cfg")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "a",
                    "--seed", "99"]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() != (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()
    out = capsys.readouterr().out
    assert "seed=99" in out and "seed=7" in out


def test_experiment_subcommands_run(tmp_path, capsys):
    assert run_cli(
        ["exp-fluid", "--config", os.path.join(CONFIG_DIR, "fluid_small.cfg"),
         "--out", tmp_path / "f"]
    ) == 0
    assert run_cli(
        ["gen-check", "--config", os.path.join(CONFIG_DIR, "gencheck.cfg"),
         "--out", tmp_path / "g"]
    ) == 0
    out = capsys.readouterr().out
    assert "exp-fluid ok" in out and "gen-check ok" in out
    table = (tmp_path / "f" / "fluid_table.csv").read_text().splitlines()
    assert table[0] == "level,epsilon,statistic,empirical,limit,abs_error,mc_stderr"


def test_exp_diffusion_rejects_fractional_box_sizes(tmp_path, capsys):
    model = (
        "schema=1\ngraph = single.g\nab = zero\nad = diag:1\nu = 1.0\nt = 0.5\n"
        "epsilons = 0.5, 0.25\nreplicas = 10\n"
    )
    (tmp_path / "single.g").write_text("n 1\n")
    # the default boxes ceil(eps^-2) are integral floats
    cfg = write(tmp_path, "default.cfg", model)
    assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "d"]) == 0
    cfg = write(tmp_path, "d.cfg", model + "box_sizes = 4.9, 16.5\n")
    assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "box sizes must be finite integers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exp_diffusion_rejects_one_replica(tmp_path, capsys):
    (tmp_path / "single.g").write_text("n 1\n")
    cfg = write(
        tmp_path, "one.cfg",
        "schema=1\ngraph = single.g\nab = zero\nad = diag:1\nu = 1.0\nt = 0.5\n"
        "levels = 2\nreplicas = 1\n",
    )
    assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "at least two replicas" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exp_diffusion_deterministic(tmp_path):
    cfg_text = (
        "schema=1\ngraph = single.g\nab = zero\nad = diag:1\nu = 1.0\nt = 0.5\n"
        "levels = 2\nreplicas = 60\nseed = 4\n"
    )
    cfg = write(tmp_path, "d.cfg", cfg_text)
    (tmp_path / "single.g").write_text("n 1\n")
    assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run_cli(["exp-diffusion", "--config", cfg, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "diffusion_table.csv").read_bytes() == (
        tmp_path / "b" / "diffusion_table.csv"
    ).read_bytes()


def test_trajectory_and_path_csv_formats(tmp_path):
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)
    traj = bd.simulate(spec, [0], 5.0, seed=1)
    bio.write_trajectory_csv(tmp_path / "t.csv", traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "t,vertex,sign"
    assert len(lines) == traj.num_events + 1


def test_scalar_and_table_csv(tmp_path):
    bio.write_scalar_csv(tmp_path / "s.csv", "max_residual", 1e-13)
    assert (tmp_path / "s.csv").read_text() == "max_residual\n1e-13\n"
    table = bd.ConvergenceTable()
    table.add(0, 0.25, "sup_error", 0.5, 0.0, 0.5, None)
    bio.write_table_csv(tmp_path / "t.csv", table)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1] == "0,0.25,sup_error,0.5,0.0,0.5,"


def test_gen_check_rate_overflow_exits_two(tmp_path, capsys):
    cfg = write(
        tmp_path, "hot.cfg",
        "schema=1\ngraph = s.g\nab = diag:40000\nad = zero\ncenter = 0.0\n"
        "radius = 2.0\nlevels = 2\ncoarsest_log2_eps = -3\n",
    )
    (tmp_path / "s.g").write_text("n 1\n")
    assert run_cli(["gen-check", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gibbs_csv_under_raised_cap(tmp_path, capsys):
    # 500^2 = 250 000 states: past the default cap, inside the configured one
    cfg = write(
        tmp_path, "wide.cfg",
        "schema=1\ngraph = p2.g\nab = zero\nad = zero\nl = 250\nr = 249\n"
        "cap = 300000\n",
    )
    (tmp_path / "p2.g").write_text("n 2\ne 0 1\n")
    assert run_cli(["gibbs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert "gibbs ok states=250000" in capsys.readouterr().out
    with open(tmp_path / "o" / "gibbs.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 250_001


def test_distribution_csv_needs_one_probability_per_state(tmp_path):
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=2)
    with pytest.raises(bd.DimensionMismatchError):
        bio.write_distribution_csv(tmp_path / "d.csv", spec, [0.5, 0.5])


# sha256 of exp-diffusion's diffusion_table.csv for diffusion_small.cfg, at
# the config seed and at --seed 77.  The rows hold the Monte-Carlo moments
# of the single-vertex replicas, so any change in how a replica consumes its
# draws moves them; the exact-law columns come from scipy's expm, so another
# numpy/scipy build may differ in the last digit.
DIFFUSION_TABLE_SHA256 = {
    None: "89c74609a5822506f49969d423d4fc78e537ffb99ccb810ff7edfa991c630aa4",
    77: "89dcf388da28b2960cd09378415a6d4a0af8fb82bfb11e49d8be064b6ecebec5",
}


@pytest.mark.parametrize("seed", sorted(DIFFUSION_TABLE_SHA256, key=str))
def test_exp_diffusion_table_is_pinned(tmp_path, seed):
    args = ["exp-diffusion", "--config", os.path.join(CONFIG_DIR, "diffusion_small.cfg")]
    if seed is not None:
        args += ["--seed", str(seed)]
    assert cli_main(args + ["--out", str(tmp_path)]) == 0
    table = (tmp_path / "diffusion_table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == DIFFUSION_TABLE_SHA256[seed]


TABLE_HEADER = "level,epsilon,statistic,empirical,limit,abs_error,mc_stderr"
DISTRIBUTION_HEADER = "state_index,spin_0,spin_1,probability"
SPECTRAL_CSVS = {
    "spectral_report.csv": "method,pd,min_eig,max_eig",
    "eigenvalues.csv": "eigenvalue",
}

# subcommand, its arguments on demos/configs, the keys of its summary line in
# order, and the header row of each CSV it writes
SUMMARY_CONTRACT = [
    ("simulate", ["--config", "sim_two_site.cfg"],
     ["events", "boundary_hits", "t_end", "seed"], {"trajectory.csv": "t,vertex,sign"}),
    ("stationary", ["--config", "two_site.cfg"],
     ["states", "max_prob"], {"stationary.csv": DISTRIBUTION_HEADER}),
    ("gibbs", ["--config", "two_site.cfg"],
     ["states", "log_z"], {"gibbs.csv": DISTRIBUTION_HEADER}),
    ("balance-check", ["--config", "two_site.cfg"],
     ["residual"], {"balance.csv": "max_residual"}),
    ("spectrum", ["--graph", "cycle3.g", "--alpha", "-3", "--beta", "1"],
     ["pd", "min_eig", "method"], SPECTRAL_CSVS),
    ("classify", ["--graph", "star5.g", "--alpha", "-3", "--beta", "1"],
     ["pd", "min_eig", "method"], SPECTRAL_CSVS),
    ("exp-diffusion", ["--config", "diffusion_small.cfg"],
     ["levels", "coarsest_mean_err", "finest_mean_err"],
     {"diffusion_table.csv": TABLE_HEADER}),
    ("exp-fluid", ["--config", "fluid_small.cfg"],
     ["levels", "d_coarsest", "d_finest"], {"fluid_table.csv": TABLE_HEADER}),
    ("gen-check", ["--config", "gencheck.cfg"],
     ["levels", "e_finest", "ratio_finest"], {"generator_table.csv": TABLE_HEADER}),
]


def demo_args(args):
    """The arguments with each config or graph file name under demos/configs."""
    return [a if a.startswith("-") or not a.endswith((".cfg", ".g"))
            else os.path.join(CONFIG_DIR, a) for a in args]


@pytest.mark.parametrize(
    "sub, args, keys, csvs", SUMMARY_CONTRACT, ids=[c[0] for c in SUMMARY_CONTRACT]
)
def test_summary_line_and_csv_headers(tmp_path, capsys, sub, args, keys, csvs):
    args = demo_args(args)
    assert run_cli([sub] + args + ["--out", tmp_path / "o"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{sub} ok ")
    pairs = [token.split("=") for token in lines[0][len(f"{sub} ok "):].split(" ")]
    assert [key for key, _ in pairs] == keys
    assert all(value for _, value in pairs)
    assert sorted(os.listdir(tmp_path / "o")) == sorted(csvs)
    for name, header in csvs.items():
        assert (tmp_path / "o" / name).read_text().splitlines()[0] == header


# the subcommands that never reach a function importing scipy; stationary
# (sparse LU) and exp-diffusion (expm) are the two that load it
SCIPY_FREE = ["simulate", "gibbs", "balance-check", "classify", "spectrum",
              "exp-fluid", "gen-check"]


@pytest.mark.parametrize("sub", SCIPY_FREE)
def test_scipy_free_subcommands_load_no_scipy(tmp_path, sub):
    args = demo_args(next(c[1] for c in SUMMARY_CONTRACT if c[0] == sub))
    code = (
        "import sys\n"
        "from bdlimits.cli import cli_main\n"
        "status = cli_main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(status)\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code, sub, *args, "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    summary, loaded = out.stdout.splitlines()
    assert summary.startswith(f"{sub} ok ")
    assert loaded == "[]"


def test_optional_keys_default_to_the_library(tmp_path, capsys):
    # configs that leave out every optional key give the tables of the API
    # calls made with the config classes' and geometric_schedule's defaults
    graph = os.path.join(CONFIG_DIR, "single.g")
    model = f"schema=1\ngraph = {graph}\nab = zero\nad = diag:1\nlevels = 2\n"
    fluid_cfg = write(tmp_path, "fluid.cfg", model + "u = 1.0\nt = 2.0\n")
    gen_cfg = write(tmp_path, "gen.cfg", model)
    assert run_cli(["exp-fluid", "--config", fluid_cfg, "--out", tmp_path / "f"]) == 0
    assert run_cli(["gen-check", "--config", gen_cfg, "--out", tmp_path / "g"]) == 0
    g, ab, ad = bd.single_vertex(), np.zeros((1, 1)), np.eye(1)
    fluid = bd.run_fluid_experiment(bd.FluidExperimentConfig(
        g, ab, ad, bd.geometric_schedule("fluid", [1.0], 2), t=2.0
    ))
    gen = bd.generator_convergence_check(bd.GeneratorCheckConfig(
        g, ab, ad, bd.geometric_schedule("diffusion", [0.0], 2)
    ))
    for table, out in ((fluid, "f/fluid_table.csv"), (gen, "g/generator_table.csv")):
        bio.write_table_csv(tmp_path / "api.csv", table)
        assert (tmp_path / out).read_bytes() == (tmp_path / "api.csv").read_bytes()


def test_spectral_config_route_matches_the_flags(tmp_path, capsys):
    # graph, alpha and beta from a config give the summary line and CSV bytes
    # of the same values as flags, and neither route may leave one out
    star = os.path.join(CONFIG_DIR, "star5.g")
    cfg = write(tmp_path, "c.cfg", f"schema=1\ngraph = {star}\nalpha = -3\nbeta = 1\n")
    flags = ["--graph", star, "--alpha", "-3", "--beta", "1"]
    for sub in ("classify", "spectrum"):
        assert run_cli([sub, "--config", cfg, "--out", tmp_path / sub / "c"]) == 0
        assert run_cli([sub, *flags, "--out", tmp_path / sub / "f"]) == 0
        via_config, via_flags = capsys.readouterr().out.splitlines()
        assert via_config == via_flags and via_config.startswith(f"{sub} ok pd=true ")
        for name in SPECTRAL_CSVS:
            assert (tmp_path / sub / "c" / name).read_bytes() == (
                tmp_path / sub / "f" / name
            ).read_bytes()
    assert run_cli(["classify", "--graph", star, "--alpha", "-3", "--out", tmp_path / "o"]) == 1
    assert "need --graph, --alpha and --beta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_spectral_flags_still_parse_the_config_values(tmp_path, capsys):
    # a flag overrides a config value, but a bad value in the file is still
    # an error
    cfg = write(
        tmp_path, "c.cfg",
        f"schema=1\ngraph = {os.path.join(CONFIG_DIR, 'star5.g')}\n"
        "alpha = abc\nbeta = nan\n",
    )
    code = run_cli(
        ["classify", "--config", cfg, "--alpha", "-3", "--beta", "1",
         "--out", tmp_path / "out"]
    )
    assert code == 1
    assert "field 'alpha' must be a number" in capsys.readouterr().err
