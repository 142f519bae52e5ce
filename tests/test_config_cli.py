"""Tests for the config format, matrix file IO, and the command line."""

import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenopure
from zenopure import cli, config, engine, linalg
from zenopure import oscillator as osc
from zenopure.config import (
    ConfigError,
    ExperimentConfig,
    emit_config,
    load_config,
    load_matrix_file,
    parse_config,
    save_matrix_file,
)

FIG1_CONFIG = """\
[model]
kind = "oscillator"
big_omega = 1
omega = 1
g = 0.2
alpha_re = 0.5
alpha_im = 0
beta = 1
tuned_m = 1
tuned_branch = "plus"
n_steps = 30
"""

ZENO_SCAN_CONFIG = (
    FIG1_CONFIG
    + f"total_time = {2 * np.pi / 1.2!r}\n"
    + "n_values = [1, 2, 4, 8, 16, 32]\n"
)

_TUNED = 'tuned_m = 1\ntuned_branch = "plus"\n'
#: Uncoupled modes: |e^C| = 1, so V's spectrum has no magnitude gap.
NO_GAP_CONFIG = (
    FIG1_CONFIG.replace(_TUNED, "").replace("g = 0.2", "g = 0")
    .replace("big_omega = 1", "big_omega = 2") + "tau = 1.0\n"
)
#: 1 - |e^C| = 9.7e-8: above compare's 1e-9 gap threshold, below the
#: eigensolver's tie gap, so V's leading pairs are tied.
NEAR_TIE_CONFIG = FIG1_CONFIG.replace(_TUNED, "") + "tau = 0.0022\n"
#: A hot B mode whose displaced thermal state reaches the cutoff.
THERMAL_TAIL_CONFIG = FIG1_CONFIG.replace("beta = 1\n", "beta = 0.1\n")

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("ZENOPURE_TOL", raising=False)


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.partition(" = ")[2]
    raise AssertionError(f"{key!r} not found in output:\n{text}")


# ---------------------------------------------------------------- parsing


def test_parse_reference_config():
    cfg = parse_config(FIG1_CONFIG)
    assert cfg.kind == "oscillator"
    assert cfg.big_omega == 1.0 and cfg.omega == 1.0 and cfg.g == 0.2
    assert cfg.alpha == 0.5 + 0.0j
    assert cfg.tau is None
    assert cfg.tuned_m == 1 and cfg.tuned_branch == "plus"
    assert cfg.n_max_a == 30 and cfg.n_max_b == 30 and cfg.n_steps == 30


def test_parse_comments_and_quoted_hash(tmp_path):
    text = (
        "# leading comment\n"
        "[model]  # section\n"
        'kind = "explicit"\n'
        'hamiltonian_file = "ham#1.mat"  # hash inside quotes survives\n'
        "probe_re = [1, 0]\n"
        "tau = 0.5\n"
    )
    cfg = parse_config(text)
    assert cfg.hamiltonian_file == "ham#1.mat"
    assert cfg.probe == (1 + 0j, 0 + 0j)


def test_round_trip_hand_cases():
    cases = [
        parse_config(FIG1_CONFIG),
        parse_config(ZENO_SCAN_CONFIG),
        ExperimentConfig(
            kind="oscillator", big_omega=1.25, omega=0.75, g=0.3,
            alpha=0.1 - 0.7j, beta=2.0, tau=0.9, n_max_a=12, n_max_b=17,
            n_steps=5,
        ),
        ExperimentConfig(
            kind="explicit", hamiltonian_file="h.mat",
            probe=(0.6 + 0.0j, 0.8j), tau=1.5,
        ),
        ExperimentConfig(
            kind="explicit", propagator_file="v.mat",
            total_time=3.0, n_values=(1, 2, 4),
        ),
    ]
    for cfg in cases:
        assert parse_config(emit_config(cfg)) == cfg


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def oscillator_configs(draw):
    tuned = draw(st.booleans())
    kwargs = dict(
        kind="oscillator",
        big_omega=draw(finite),
        omega=draw(finite),
        g=draw(finite),
        alpha=complex(draw(finite), draw(finite)),
        beta=draw(finite),
        n_max_a=draw(st.integers(1, 200)),
        n_max_b=draw(st.integers(1, 200)),
        n_steps=draw(st.integers(1, 500)),
    )
    if tuned:
        kwargs["tuned_m"] = draw(st.integers(1, 9))
        kwargs["tuned_branch"] = draw(st.sampled_from(("plus", "minus")))
    else:
        kwargs["tau"] = draw(finite)
    if draw(st.booleans()):
        kwargs["total_time"] = draw(st.floats(min_value=1e-6, max_value=1e6,
                                              allow_nan=False))
        kwargs["n_values"] = tuple(draw(st.lists(st.integers(1, 10 ** 6),
                                                 min_size=1, max_size=8)))
    return ExperimentConfig(**kwargs)


@st.composite
def explicit_configs(draw):
    kwargs = dict(kind="explicit", n_steps=draw(st.integers(1, 500)))
    if draw(st.booleans()):
        kwargs["hamiltonian_file"] = "h.mat"
        kwargs["probe"] = tuple(complex(draw(finite), draw(finite))
                                for _ in range(draw(st.integers(1, 4))))
        kwargs["tau"] = draw(finite)
    else:
        kwargs["propagator_file"] = "v.mat"
    if draw(st.booleans()):
        kwargs["total_time"] = draw(st.floats(min_value=1e-6, max_value=1e6,
                                              allow_nan=False))
        kwargs["n_values"] = tuple(draw(st.lists(st.integers(1, 10 ** 6),
                                                 min_size=1, max_size=8)))
    return ExperimentConfig(**kwargs)


@given(st.one_of(oscillator_configs(), explicit_configs()))
@settings(max_examples=150, deadline=None)
def test_round_trip_hypothesis(cfg):
    assert parse_config(emit_config(cfg)) == cfg


def test_cutoffs_default_and_are_written_for_the_oscillator_model_only():
    explicit = parse_config(EXPLICIT_H)
    assert explicit.n_max_a is None and explicit.n_max_b is None
    assert "n_max" not in emit_config(explicit)
    oscillator = parse_config(FIG1_CONFIG)
    assert (oscillator.n_max_a, oscillator.n_max_b) == (30, 30)
    assert "n_max_a = 30\nn_max_b = 30\n" in emit_config(oscillator)


def test_emit_writes_every_field_that_is_set():
    # Every field set at once, past the per-model refusals: a field added to
    # ExperimentConfig but not to config's key table is not written.
    sample = {"str": "s", "int": 3, "float": 0.5, "complex": 0.5 - 0.25j,
              "tuple[int, ...]": (1, 2), "tuple[complex, ...]": (1 + 2j,)}
    cfg = object.__new__(ExperimentConfig)
    for field in dataclasses.fields(ExperimentConfig):
        object.__setattr__(cfg, field.name, sample[field.type.removesuffix(" | None")])
    keys = {line.partition(" = ")[0] for line in emit_config(cfg).splitlines()[1:]}
    for field in dataclasses.fields(ExperimentConfig):
        assert field.name in keys or {field.name + "_re", field.name + "_im"} <= keys, field.name


BAD_CONFIGS = [
    "",  # no section at all
    "kind = \"oscillator\"\n",  # key outside any section
    "[model]\n[model]\nkind = \"oscillator\"\n",  # duplicate section
    "[model]\nkind = \"oscillator\"\nkind = \"explicit\"\n",  # duplicate key
    "[model\nkind = \"oscillator\"\n",  # malformed header
    "[model]\njust words\n",  # missing '='
    "[model]\n= 3\n",  # empty key
    "[model]\nkind = \"oscillator\n",  # unterminated string
    "[model]\nkind = \"oscillator\"\nn_values = [1, 2\n",  # unterminated list
    "[model]\nkind = \"oscillator\"\nomega = abc\n",  # unparsable scalar
    "[model]\nkind = 3\n",  # kind must be a string
    "[model]\nkind = \"banana\"\n",  # unknown kind
    "[extra]\nkind = \"oscillator\"\n",  # wrong section name
    FIG1_CONFIG + "[extra]\nx = 1\n",  # second section
    FIG1_CONFIG + "mystery = 1\n",  # unknown key
    FIG1_CONFIG + "omega2 = true\n",  # unknown key, bool value
    FIG1_CONFIG.replace("big_omega = 1", 'big_omega = "one"'),  # wrong type
    FIG1_CONFIG.replace("big_omega = 1", "big_omega = true"),  # bool for number
    FIG1_CONFIG.replace("n_steps = 30", "n_steps = 0"),  # n_steps < 1
    FIG1_CONFIG.replace("n_steps = 30", "n_max_a = 0"),  # cutoff < 1
    FIG1_CONFIG + "tau = 1.0\n",  # tau and tuned interval together
    FIG1_CONFIG.replace("tuned_m = 1\n", ""),  # tuned_branch without tuned_m
    FIG1_CONFIG.replace('tuned_branch = "plus"\n', ""),  # tuned_m alone
    FIG1_CONFIG.replace("tuned_m = 1", "tuned_m = 0"),
    FIG1_CONFIG.replace('tuned_branch = "plus"', 'tuned_branch = "sideways"'),
    FIG1_CONFIG.replace("omega = 1\n", ""),  # missing oscillator parameter
    FIG1_CONFIG + 'hamiltonian_file = "h.mat"\n',  # two model sources
    "[model]\nkind = \"explicit\"\n",  # no source at all
    "[model]\nkind = \"explicit\"\nbig_omega = 1\nomega = 1\ng = 0.1\n"
    "alpha_re = 0\nbeta = 1\ntau = 1\n",  # explicit kind, oscillator source
    "[model]\nkind = \"explicit\"\nhamiltonian_file = \"h.mat\"\ntau = 1.0\n",
    "[model]\nkind = \"explicit\"\nhamiltonian_file = \"h.mat\"\n"
    "probe_re = [1, 0]\n",  # hamiltonian without tau
    "[model]\nkind = \"explicit\"\npropagator_file = \"v.mat\"\n"
    "probe_re = [1, 0]\n",  # propagator does not take a probe
    "[model]\nkind = \"explicit\"\npropagator_file = \"v.mat\"\n"
    "probe_im = [1, 0]\n",  # probe_im without probe_re
    "[model]\nkind = \"explicit\"\nhamiltonian_file = \"h.mat\"\ntau = 1\n"
    "probe_re = [1, 0]\nprobe_im = [0]\n",  # length mismatch
    "[model]\nkind = \"explicit\"\nhamiltonian_file = \"h.mat\"\ntau = 1\n"
    "probe_re = [1, \"x\"]\n",  # non-numeric probe entry
    FIG1_CONFIG + 'outputs = ["spectrum"]\n',  # unknown key, a removed one
    FIG1_CONFIG + "n_values = []\n",  # empty scan list
    FIG1_CONFIG + "n_values = [0, 2]\n",  # scan point below 1
    FIG1_CONFIG + "n_values = [1.5]\n",  # scan points must be integers
    FIG1_CONFIG + "total_time = 0\n",  # total_time must be positive
    FIG1_CONFIG.replace("g = 0.2", "g = [0.2]"),  # list for a scalar
]


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


EXPLICIT_H = '[model]\nkind = "explicit"\nhamiltonian_file = "h.mat"\nprobe_re = [1, 0]\ntau = 0.5\n'
EXPLICIT_V = '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n'
CARRIES_OSCILLATOR_KEYS = "explicit model must not carry oscillator parameters"


@pytest.mark.parametrize("text, message", [
    ('[model]\nkind = "oscillator"\nhamiltonian_file = "h.mat"\n',
     "oscillator model needs inline parameters"),
    (FIG1_CONFIG.replace("g = 0.2\n", ""), "oscillator model is missing 'g'"),
    (FIG1_CONFIG.replace("g = 0.2", "g ="), "empty value for 'g' (line 5)"),
    (FIG1_CONFIG.replace('kind = "oscillator"\n', ""), "[model] is missing required key 'kind'"),
    (EXPLICIT_H.replace("probe_re = [1, 0]", "probe_re = 1"), "key 'probe_re' must be a list"),
    # Keys the chosen model would ignore.
    (FIG1_CONFIG + "probe_re = [1, 0]\n", "oscillator model does not take a probe vector"),
    (EXPLICIT_H + "g = 0.2\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "omega = 1\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "beta = 1\nalpha_re = 3\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "alpha_im = 3\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "tuned_m = 1\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + 'tuned_branch = "plus"\n', CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_V + "g = 0.2\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "n_max_a = 7\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_H + "n_max_b = 2\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_V + "n_max_a = 30\nn_max_b = 30\n", CARRIES_OSCILLATOR_KEYS),
    (EXPLICIT_V + "tau = 0.3\n", "propagator_file does not take tau"),
    (EXPLICIT_V + "tau = -1\n", "propagator_file does not take tau"),
], ids=["oscillator_without_inline", "missing_g", "empty_value", "missing_kind",
        "probe_not_list", "oscillator_probe", "explicit_g", "explicit_omega",
        "explicit_beta_alpha", "explicit_alpha_im", "explicit_tuned_m",
        "explicit_tuned_branch", "propagator_g", "explicit_n_max_a",
        "explicit_n_max_b", "propagator_n_max", "propagator_tau",
        "propagator_negative_tau"])
def test_parse_refusals_word_for_word(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, message", [
    (FIG1_CONFIG.replace("g = 0.2", 'g = "x"') + "mystery = 1\n", "key 'g' has the wrong type"),
    (EXPLICIT_H.replace("tau = 0.5", 'tau = "x"') + "g = 0.2\n", "key 'tau' has the wrong type"),
    (FIG1_CONFIG.replace("alpha_re = 0.5", "alpha_re = true").replace("g = 0.2", 'g = "x"'),
     "key 'alpha_re' has the wrong type"),
    (FIG1_CONFIG.replace("g = 0.2\n", "") + "mystery = 1\n", "oscillator model is missing 'g'"),
], ids=["wrong_type_and_unknown_key", "wrong_type_and_oscillator_key_on_explicit",
        "two_wrong_types", "validation_and_unknown_key"])
def test_parse_reports_the_first_of_two_faults(text, message):
    # Type checks in key order, then the per-model checks, then unknown keys.
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == message


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))


# ------------------------------------------------------------ matrix IO


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    path = str(tmp_path / "m.mat")
    save_matrix_file(path, 2, 3, m)
    dim_a, dim_b, loaded = load_matrix_file(path)
    assert (dim_a, dim_b) == (2, 3)
    np.testing.assert_array_equal(loaded, m)


def test_matrix_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_matrix_file(str(tmp_path / "absent.mat"))
    cases = {
        "header_only.mat": "2\n",
        "not_numeric.mat": "1 2 0.0 x 0 0 0 0 0 0\n",
        "bad_dims.mat": "0 2\n" + " ".join(["0"] * 8),
        "wrong_count.mat": "1 2 0.0 0.0 1.0\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_matrix_file(str(path))
    with pytest.raises(ValueError):
        save_matrix_file(str(tmp_path / "shape.mat"), 2, 3, np.eye(4))


NOT_NUMERIC = "is not numeric: could not convert string to float: "


@pytest.mark.parametrize("text, message", [
    ("2\n", "lacks the dimension header"),
    ("", "lacks the dimension header"),
    ("2.5 1\n0 0\n", "is not numeric: invalid literal for int() with base 10: '2.5'"),
    ("1 1\n0 x\n", NOT_NUMERIC + "'x'"),
    ("1 1\n0 0x10\n", NOT_NUMERIC + "'0x10'"),
    ("1 1\n0 nan(1)\n", NOT_NUMERIC + "'nan(1)'"),
    ("1 1\n0 1,5\n", NOT_NUMERIC + "'1,5'"),
    ("1 1\n0 1-2\n", NOT_NUMERIC + "'1-2'"),
    ("1 1\n \t \n", "holds 0 numbers, expected 2"),
    ("0 2 x\n", NOT_NUMERIC + "'x'"),
    ("0 2\n" + "0 " * 8, "has nonpositive dimensions"),
    ("1 2 0.0 0.0 1.0\n", "holds 3 numbers, expected 8"),
], ids=["header_only", "empty", "fractional_header", "letter", "hex", "nan_payload",
        "comma", "inner_minus", "blank_body", "zero_dims_and_letter", "zero_dims",
        "wrong_count"])
def test_matrix_file_refusals_word_for_word(tmp_path, text, message):
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_matrix_file(str(path))
    assert str(caught.value) == f"matrix file {str(path)!r} {message}"


@pytest.mark.parametrize("body, expected", [
    ("1_0 -0.0", [10.0, -0.0]),
    ("1\xa02", [1.0, 2.0]),
    ("١ 2.5", [1.0, 2.5]),
    ("inf -nan", [np.inf, np.nan]),
], ids=["underscore", "nbsp_separator", "arabic_indic_digit", "non_finite"])
def test_matrix_file_accepts_what_float_accepts(tmp_path, body, expected):
    path = tmp_path / "m.mat"
    path.write_text("1 1 " + body + "\n", encoding="utf-8")
    dim_a, dim_b, matrix = load_matrix_file(str(path))
    assert (dim_a, dim_b) == (1, 1)
    np.testing.assert_array_equal(matrix, [[expected[0] + 1j * expected[1]]])


def reference_load_matrix_file(path):
    """load_matrix_file as a token loop: one str and one float per entry."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ConfigError(f"matrix file {path!r} lacks the dimension header")
    try:
        dim_a, dim_b = int(tokens[0]), int(tokens[1])
        values = np.array([float(t) for t in tokens[2:]], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"matrix file {path!r} is not numeric: {exc}") from exc
    if dim_a < 1 or dim_b < 1:
        raise ConfigError(f"matrix file {path!r} has nonpositive dimensions")
    d = dim_a * dim_b
    if values.size != 2 * d * d:
        raise ConfigError(
            f"matrix file {path!r} holds {values.size} numbers, expected {2 * d * d}"
        )
    pairs = values.reshape(d * d, 2)
    # 1j * inf is nan+infj, as in config._as_complex.
    with np.errstate(invalid="ignore"):
        return dim_a, dim_b, (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)


FINITE_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0.0", "-0.0", "5e-324", "1.7976931348623157e308",
                     "-1.7976931348623157e308"]),
)
ODD_TOKENS = st.sampled_from(
    ["inf", "-nan", "1_0", "0x10", "nan(1)", "1,5", "1-2", ".", "١"]
)
SEPARATORS = st.lists(
    st.sampled_from([" ", "\t", "\n", "\r\n", "\xa0", "\x0b"]), min_size=1, max_size=3
).map("".join)


@st.composite
def matrix_texts(draw):
    dim_a, dim_b = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    d = dim_a * dim_b
    count = max(0, 2 * d * d + draw(st.sampled_from([0, 0, 0, -1, 1])))
    tokens = draw(st.lists(FINITE_TOKENS, min_size=count, max_size=count))
    for at, odd in draw(st.lists(st.tuples(st.integers(0, count), ODD_TOKENS), max_size=2)):
        tokens.insert(at, odd)
    header_break = draw(st.one_of(st.just("\n"), SEPARATORS))
    text = f"{dim_a} {dim_b}" + header_break
    text += "".join(token + draw(SEPARATORS) for token in tokens)
    if draw(st.booleans()):
        text = text.rstrip(" \t\n\r\xa0\x0b")
    return text


def load_outcome(loader, path):
    try:
        dim_a, dim_b, matrix = loader(path)
    except ConfigError as exc:
        return "refused", str(exc)
    return dim_a, dim_b, matrix.shape, matrix.view(np.int64).tolist()


@given(text=matrix_texts())
@settings(max_examples=300, deadline=None)
def test_matrix_file_parse_matches_token_loop(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("matrix") / "m.mat")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    assert load_outcome(load_matrix_file, path) == load_outcome(
        reference_load_matrix_file, path
    )


@given(text=matrix_texts(), chunk=st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_matrix_file_chunk_edges_match_token_loop(tmp_path_factory, text, chunk):
    # Chunks of a few bytes put tokens, "\r\n", the two UTF-8 bytes of an
    # NBSP and the odd tokens across chunk edges.
    path = str(tmp_path_factory.mktemp("matrix") / "m.mat")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_CHUNK_BYTES", chunk)
        outcome = load_outcome(load_matrix_file, path)
    assert outcome == load_outcome(reference_load_matrix_file, path)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
def test_matrix_file_chunked_path_reads_a_clean_file(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m[2, 3] = complex(-0.0, 0.0)
    path = str(tmp_path / "m.mat")
    save_matrix_file(path, 3, 2, m)
    monkeypatch.setattr(config, "_CHUNK_BYTES", chunk)
    parsed = []
    fromstring = np.fromstring

    def counted(*args, **kwargs):
        part = fromstring(*args, **kwargs)
        parsed.append(part.size)
        return part

    monkeypatch.setattr(np, "fromstring", counted)
    assert load_outcome(load_matrix_file, path) == load_outcome(
        reference_load_matrix_file, path
    )
    assert sum(parsed) == 2 * 6 * 6  # every entry came out of np.fromstring


def test_matrix_file_load_heap_stays_below_file_size_over_many_chunks(tmp_path):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    path = tmp_path / "big.mat"
    save_matrix_file(str(path), 4, 40, m)
    size = path.stat().st_size
    assert size >= 8 * config._CHUNK_BYTES
    tracemalloc.start()
    try:
        _, _, loaded = load_matrix_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded, m)
    assert peak <= size


def test_matrix_file_load_heap_stays_near_file_size(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
    path = tmp_path / "big.mat"
    save_matrix_file(str(path), 4, 30, m)
    size = path.stat().st_size
    assert size >= 500_000
    tracemalloc.start()
    try:
        _, _, loaded = load_matrix_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded, m)
    assert peak <= 3 * size


def test_matrix_file_run_cuts_know_every_str_split_separator():
    spaces = {chr(c).encode() for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert spaces == set(config._ASCII_SPACE) | set(config._OTHER_SPACE)


def one_nbsp(text):
    middle = text.index(b" ", len(text) // 2)
    return text[:middle] + "\xa0".encode() + text[middle + 1:]


def no_ascii_space(text):
    return text.replace(b" ", "\xa0".encode()).replace(b"\n", "\u3000".encode())


@pytest.mark.parametrize("respace", [one_nbsp, no_ascii_space])
def test_matrix_file_nbsp_keeps_heap_bound_and_output(tmp_path, capsys, respace):
    # Non-ASCII separators send only the runs that hold them to float(), and
    # a file with no ASCII whitespace is still cut into runs of about a chunk.
    rng = np.random.default_rng(13)
    m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    save_matrix_file(str(tmp_path / "clean.mat"), 4, 40, (m + m.conj().T) / 2)
    path = tmp_path / "nbsp.mat"
    path.write_bytes(respace((tmp_path / "clean.mat").read_bytes()))
    size = path.stat().st_size
    assert size >= 8 * config._CHUNK_BYTES
    tracemalloc.start()
    try:
        loaded = load_matrix_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_outcome(lambda _: loaded, str(path)) == load_outcome(
        reference_load_matrix_file, str(path)
    )
    assert peak <= size
    outs = []
    for name in ("clean.mat", "nbsp.mat"):
        cfg = write(tmp_path, f'[model]\nkind = "explicit"\nhamiltonian_file = "{name}"\n'
                              "probe_re = [1, 0, 0, 0]\ntau = 0.5\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", [
    b"1 2\n0 0 0.5 0\n0.5 0 0 \xff\n0.25 0 0 0\n",
    b"1 2\n0 0 0.5 0\n0.5 0 0 \xc2\n0.25 0 0 0\n",
    b"1 \xe2\x80 2\n0 0 0.5 0\n0.5 0 0 0\n0.25 0 0 0\n",
], ids=["invalid_start_byte", "truncated_sequence", "in_header_token"])
@pytest.mark.parametrize("chunk", [3, 1 << 16], ids=["runs_of_a_few_bytes", "one_run"])
def test_matrix_file_not_utf8_refused_at_its_file_offset(tmp_path, monkeypatch, capsys,
                                                        text, chunk):
    path = tmp_path / "m.mat"
    path.write_bytes(text)
    with pytest.raises(UnicodeDecodeError) as whole:
        text.decode("utf-8")
    monkeypatch.setattr(config, "_CHUNK_BYTES", chunk)
    with pytest.raises(ConfigError) as caught:
        load_matrix_file(str(path))
    assert str(caught.value) == (
        f"matrix file {str(path)!r} is not UTF-8: {whole.value.reason} "
        f"at byte {whole.value.start}"
    )
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "m.mat"\n')
    code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert (code, out) == (1, "")
    assert err.startswith("error: matrix file ") and f"at byte {whole.value.start}\n" in err


def test_matrix_file_reports_an_earlier_token_before_a_later_bad_byte(tmp_path, monkeypatch):
    path = tmp_path / "m.mat"
    path.write_bytes(b"1 1\nx 0\n\xff\n")
    monkeypatch.setattr(config, "_CHUNK_BYTES", 4)
    with pytest.raises(ConfigError) as caught:
        load_matrix_file(str(path))
    assert str(caught.value) == f"matrix file {str(path)!r} {NOT_NUMERIC}'x'"


def test_non_finite_matrix_entry_refused_by_cli(tmp_path, capsys):
    cfg = decoupled_hamiltonian_config(tmp_path)
    path = tmp_path / "ham.mat"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "nan " + lines[2].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert np.isnan(load_matrix_file(str(path))[2][1, 0].real)
    code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert (code, out, err) == (1, "", "error: hamiltonian contains non-finite entries\n")


@pytest.mark.parametrize("key, extra, message", [
    ("hamiltonian_file", "probe_re = [1]\ntau = 0.5\n", "hamiltonian contains non-finite entries"),
    ("propagator_file", "", "propagator contains non-finite entries"),
], ids=["hamiltonian_file", "propagator_file"])
def test_infinite_matrix_entry_refused_without_warning(tmp_path, capsys, key, extra, message):
    # 1j * inf is nan+infj; the entry loads so, and only the refusal is printed.
    (tmp_path / "m.mat").write_text("1 2\n0.5 0 2 inf\n2 -inf 0.25 0\n", encoding="utf-8")
    entry = load_matrix_file(str(tmp_path / "m.mat"))[2][0, 1]
    assert np.isnan(entry.real) and entry.imag == np.inf
    cfg = write(tmp_path, f'[model]\nkind = "explicit"\n{key} = "m.mat"\n{extra}')
    assert run_cli(capsys, "spectrum", "--config", cfg) == (1, "", f"error: {message}\n")


# ------------------------------------------------------------------ CLI


def test_spectrum_reference(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 0 and err == ""
    assert grab(out, "degenerate") == "false"
    assert grab(out, "condition_i_met") == "true"
    assert abs(float(grab(out, "abs_lambda0")) - 1.0) <= 1e-9
    assert abs(float(grab(out, "gap_ratio")) - 0.5) <= 1e-6
    assert "closed_form_check: n lambda_numeric lambda_closed abs_dev" in out


def test_spectrum_degenerate_exit_two(tmp_path, capsys):
    text = FIG1_CONFIG.replace("g = 0.2", "g = 0").replace(
        "tuned_m = 1\n", "tau = 1.3\n"
    ).replace('tuned_branch = "plus"\n', "")
    cfg = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 2
    assert grab(out, "degenerate") == "true"


def test_spectrum_explicit_propagator(tmp_path, capsys):
    save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.diag([0.9, 0.5]))
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n')
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 0
    assert grab(out, "degenerate") == "false"
    assert abs(float(grab(out, "abs_lambda0")) - 0.9) <= 1e-9
    assert abs(float(grab(out, "gap_ratio")) - 5 / 9) <= 1e-9
    assert abs(float(grab(out, "yield_plateau_coefficient")) - 0.5) <= 1e-9
    assert grab(out, "condition_i_met") == "false"


def test_spectrum_cutoff_below_floor(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, _, err = run_cli(capsys, "spectrum", "--config", cfg, "--cutoff", "4")
    assert code == 1
    assert err.startswith("error:")


def test_purify_csv(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, out, _ = run_cli(capsys, "purify", "--config", cfg, "--steps", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,conditional_probability,yield,fidelity,purity,trace_distance_to_target"
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(6))
    assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
    assert abs(float(rows[0][3]) - 0.53971973409374263) <= 1e-12
    assert abs(float(rows[0][4]) - 0.46211715726009611) <= 1e-12
    yields = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(yields, yields[1:]))
    assert float(rows[5][3]) > 0.999  # five confirmations nearly purify


def test_figure1_matches_equivalent_config(tmp_path, capsys):
    code, baked, _ = run_cli(capsys, "figure1")
    assert code == 0
    cfg = write(tmp_path, FIG1_CONFIG)
    code, explicit, _ = run_cli(capsys, "purify", "--config", cfg)
    assert code == 0
    assert baked == explicit


def test_figure1_deterministic(capsys):
    _, first, _ = run_cli(capsys, "figure1")
    _, second, _ = run_cli(capsys, "figure1")
    assert first == second


def test_out_flag_writes_stdout_text(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    out_path = tmp_path / "run.csv"
    code, silent, _ = run_cli(
        capsys, "purify", "--config", cfg, "--steps", "3", "--out", str(out_path)
    )
    assert code == 0 and silent == ""
    code, streamed, _ = run_cli(capsys, "purify", "--config", cfg, "--steps", "3")
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == streamed


def test_purify_finishes_when_a_singular_value_is_just_above_one(tmp_path, capsys):
    # A singular value just above 1 passes the contraction check. Each state
    # is divided by its unclipped tr(V rho V†), so the trajectory keeps unit
    # trace to the end; the printed conditional probability is clipped to 1.
    save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.diag([1 + 5e-10, 0.5]))
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n'
                "n_steps = 60\n")
    code, out, err = run_cli(capsys, "purify", "--config", cfg)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 61
    for row in rows:
        n, p, cumulative, fid, purity, dist = row.split(",")
        assert float(p) <= 1.0 and float(cumulative) <= 1.0
    assert rows[-1].startswith("60,1,")
    assert float(rows[-1].split(",")[3]) == pytest.approx(1.0, abs=1e-15)


def test_purify_extinct_branch(tmp_path, capsys):
    save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.zeros((2, 2)))
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n')
    code, out, _ = run_cli(capsys, "purify", "--config", cfg, "--steps", "5")
    assert code == 0
    assert out.splitlines()[-1] == "# branch extinct after 0 confirmations"


def test_compare_reference(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 0
    assert grab(out, "status") == "ok"
    assert float(grab(out, "factorization_interior_max_dev")) <= 1e-5
    assert float(grab(out, "propagator_block_max_dev")) <= 1e-6
    assert float(grab(out, "trajectory_max_trace_distance")) <= 1e-6
    assert float(grab(out, "eigenvalue_geometric_max_rel_dev")) <= 1e-4
    assert abs(float(grab(out, "gap_ratio_closed_form")) - 0.5) <= 1e-12
    assert abs(float(grab(out, "gap_ratio_numeric")) - 0.5) <= 1e-6
    assert "external_reference_gap_ratio = 0.37 (informational, not asserted)" in out
    assert "trajectory_trace_distance_0 = " in out
    assert "trajectory_trace_distance_10 = " in out


def test_compare_forms_no_whole_propagator(tmp_path, capsys):
    # At cutoff 30 a 900 x 900 complex matrix takes 13 MB. compare checks
    # the factorization on the interior block only, so it forms no such
    # matrix; the bound leaves room for H itself, whether or not the traced
    # heap holds it.
    cfg = write(tmp_path, FIG1_CONFIG)
    run_cli(capsys, "compare", "--config", cfg)
    h_bytes = 900 * 900 * 16
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "compare", "--config", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and grab(out, "status") == "ok"
    assert peak < 1.5 * h_bytes


def test_compare_starved_cutoff_breaches(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, out, _ = run_cli(capsys, "compare", "--config", cfg, "--cutoff", "6")
    assert code == 3
    assert grab(out, "status") == "breach"


def test_compare_degenerate_interval_exit_two(tmp_path, capsys):
    text = FIG1_CONFIG.replace("tuned_m = 1\n", f"tau = {np.pi / 0.2!r}\n").replace(
        'tuned_branch = "plus"\n', ""
    )
    cfg = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 2
    assert out.startswith("degenerate interval:")


def test_compare_decoupled_skips_geometric(tmp_path, capsys):
    # g = 0 keeps |e^C| = 1: there is no magnitude gap for the numeric
    # eigensolver, and the remaining checks must agree exactly.
    text = FIG1_CONFIG.replace("g = 0.2", "g = 0").replace(
        "big_omega = 1", "big_omega = 2"
    ).replace("tuned_m = 1\n", "tau = 1.0\n").replace('tuned_branch = "plus"\n', "")
    cfg = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 0
    assert grab(out, "status") == "ok"
    assert "eigenvalue_geometric_max_rel_dev = skipped (no magnitude gap, |e^C| = 1)" in out


def test_compare_requires_oscillator(tmp_path, capsys):
    save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.diag([0.9, 0.5]))
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n')
    code, _, err = run_cli(capsys, "compare", "--config", cfg)
    assert code == 1
    assert "oscillator" in err


def decoupled_hamiltonian_config(tmp_path) -> str:
    ha = np.diag([0.7, 1.9])
    hb = np.diag([0.0, 1.0, 2.0])
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(2), hb)
    save_matrix_file(str(tmp_path / "ham.mat"), 2, 3, h)
    return write(
        tmp_path,
        '[model]\nkind = "explicit"\nhamiltonian_file = "ham.mat"\n'
        "probe_re = [1, 0]\ntau = 0.5\ntotal_time = 3.0\nn_values = [1, 2, 4, 8]\n",
    )


def test_zeno_decoupled(tmp_path, capsys):
    cfg = decoupled_hamiltonian_config(tmp_path)
    code, out, _ = run_cli(capsys, "zeno", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,tau,yield,unitarity_defect"
    assert len(lines) == 5
    for line, n in zip(lines[1:], (1, 2, 4, 8)):
        fields = line.split(",")
        assert int(fields[0]) == n
        assert abs(float(fields[1]) - 3.0 / n) <= 1e-15
        assert abs(float(fields[2]) - 1.0) <= 1e-10
        assert float(fields[3]) <= 1e-10


def test_zeno_jobs_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, ZENO_SCAN_CONFIG)
    code, serial, _ = run_cli(capsys, "zeno", "--config", cfg)
    assert code == 0
    code, threaded, _ = run_cli(capsys, "zeno", "--config", cfg, "--jobs", "4")
    assert code == 0
    assert serial == threaded


def test_zeno_requires_scan_keys(tmp_path, capsys):
    cfg = write(tmp_path, FIG1_CONFIG)
    code, _, err = run_cli(capsys, "zeno", "--config", cfg)
    assert code == 1
    assert "total_time" in err


def test_zeno_rejects_fixed_propagator(tmp_path, capsys):
    save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.diag([0.9, 0.5]))
    cfg = write(
        tmp_path,
        '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n'
        "total_time = 3.0\nn_values = [1, 2]\n",
    )
    code, _, err = run_cli(capsys, "zeno", "--config", cfg)
    assert code == 1
    assert "Hamiltonian" in err


@pytest.mark.parametrize("total_time", ["nan", "inf"])
@pytest.mark.parametrize("model", ["oscillator", "explicit"])
def test_zeno_non_finite_total_time_exits_one(tmp_path, model, total_time):
    if model == "oscillator":
        cfg = write(tmp_path, FIG1_CONFIG + f"total_time = {total_time}\nn_values = [1, 2]\n")
        argv = ["zeno", "--config", cfg, "--cutoff", "14"]
    else:
        text = pathlib.Path(decoupled_hamiltonian_config(tmp_path)).read_text(encoding="utf-8")
        cfg = write(tmp_path, text.replace("total_time = 3.0", f"total_time = {total_time}"))
        argv = ["zeno", "--config", cfg]
    proc = fresh_process(["-m", "zenopure.cli", *argv])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: propagator contains non-finite entries\n")


def test_probe_dimension_mismatch(tmp_path, capsys):
    ha = np.diag([0.7, 1.9])
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(2), np.diag([0.0, 1.0, 2.0]))
    save_matrix_file(str(tmp_path / "ham.mat"), 2, 3, h)
    cfg = write(
        tmp_path,
        '[model]\nkind = "explicit"\nhamiltonian_file = "ham.mat"\n'
        "probe_re = [1, 0, 0]\ntau = 0.5\n",
    )
    code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 1
    assert "probe" in err


def fixed_tau(value: str) -> str:
    return FIG1_CONFIG.replace("tuned_m = 1\n", f"tau = {value}\n").replace(
        'tuned_branch = "plus"\n', ""
    )


REFUSED_CONFIGS = {
    "reference": FIG1_CONFIG,
    "tau_nan": fixed_tau("nan"),
    "tau_inf": fixed_tau("inf"),
    "g_nan": FIG1_CONFIG.replace("g = 0.2", "g = nan"),
    "alpha_nan": ZENO_SCAN_CONFIG.replace("alpha_re = 0.5", "alpha_re = nan"),
    "beta_nan": FIG1_CONFIG.replace("beta = 1", "beta = nan"),
    # Both read h.mat, a 2x2 (D = 4) H that is not Hermitian.
    "not_hermitian": EXPLICIT_H,
    "wide_propagator": EXPLICIT_V.replace("v.mat", "h.mat"),
}

#: diag(0, 1, 2, 3) with H[0, 1] = 0.5 and H[1, 0] = 0: ||H - H†||_F = 0.5 sqrt(2).
NOT_HERMITIAN_H = np.diag([0.0, 1.0, 2.0, 3.0])
NOT_HERMITIAN_H[0, 1] = 0.5


@pytest.mark.parametrize("command, config, steps, message", [
    # Refused past the config parser, in the engine or the closed forms.
    ("figure1", None, "0", "n_max must be at least 1"),
    ("figure1", None, "-1", "n_max must be at least 1"),
    ("purify", "reference", "0", "n_max must be at least 1"),
    ("purify", "reference", "-1", "n_max must be at least 1"),
    ("compare", "tau_nan", None, "delta*tau = nan is not finite"),
    ("compare", "tau_inf", None, "delta*tau = inf is not finite"),
    ("compare", "alpha_nan", None, "probe amplitudes contain non-finite entries"),
    ("spectrum", "tau_nan", None, "propagator contains non-finite entries"),
    ("spectrum", "tau_inf", None, "propagator contains non-finite entries"),
    ("purify", "tau_inf", None, "propagator contains non-finite entries"),
    ("spectrum", "g_nan", None, "hamiltonian contains non-finite entries"),
    ("spectrum", "alpha_nan", None, "probe amplitudes contain non-finite entries"),
    ("purify", "beta_nan", None, "state contains non-finite entries"),
    ("compare", "beta_nan", None, "state contains non-finite entries"),
    ("zeno", "alpha_nan", None, "probe amplitudes contain non-finite entries"),
    ("spectrum", "not_hermitian", None, "hamiltonian is not Hermitian (deviation 7.071e-01)"),
    ("spectrum", "wide_propagator", None, "a propagator file must declare dim_a = 1"),
])
def test_refused_value_is_one_error_line(tmp_path, capsys, command, config, steps, message):
    argv = [command]
    if config is None or "oscillator" in REFUSED_CONFIGS[config]:
        argv += ["--cutoff", "14"]  # an explicit model has no cutoff to override
    if config is not None:
        save_matrix_file(str(tmp_path / "h.mat"), 2, 2, NOT_HERMITIAN_H)
        argv += ["--config", write(tmp_path, REFUSED_CONFIGS[config])]
    if steps is not None:
        argv += ["--steps", steps]
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_refused_value_prints_no_traceback(tmp_path):
    cfg = write(tmp_path, REFUSED_CONFIGS["alpha_nan"])
    proc = fresh_process(["-m", "zenopure.cli", "compare", "--config", cfg, "--cutoff", "14"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: probe amplitudes contain non-finite entries\n"


def test_refusals_are_value_errors():
    # main reports a ValueError as a refused input (exit code 1); every
    # refusal the package raises must be one.
    for refusal in (ConfigError, linalg.NotHermitian, osc.CutoffTooSmall,
                    osc.DegenerateInterval, osc.ZeroFrequency, np.linalg.LinAlgError):
        assert issubclass(refusal, ValueError), refusal


def test_bad_and_missing_config_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, "garbage\n")
    code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(tmp_path / "no.cfg"))
    assert code == 1 and err.startswith("error:")
    cfg = write(tmp_path, FIG1_CONFIG + 'outputs = ["spectrum"]\n')
    code, out, err = run_cli(capsys, "spectrum", "--config", cfg)
    assert (code, out, err) == (1, "", "error: unknown keys in [model]: ['outputs']\n")


def count_calls(monkeypatch, name, home=linalg):
    """Record the result of every call to ``home``'s ``name``, under any alias."""
    original = getattr(home, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for module in (linalg, engine, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return results


@pytest.mark.parametrize("command, config, exit_code, blocks, spectrum_solves, builds", [
    ("figure1", ZENO_SCAN_CONFIG, 0, 2 * 12 - 1, 0, 1),
    ("spectrum", ZENO_SCAN_CONFIG, 0, 2 * 12 - 1, 1, 1),
    ("purify", ZENO_SCAN_CONFIG, 0, 2 * 12 - 1, 0, 1),
    ("compare", ZENO_SCAN_CONFIG, 3, 2 * 12 - 1, 1, 1),
    ("zeno", ZENO_SCAN_CONFIG, 0, 2 * 12 - 1, 0, 0),
    ("compare", NO_GAP_CONFIG, 3, 12 * 12, 1, 1),
], ids=["figure1", "spectrum", "purify", "compare", "zeno", "compare-no-gap"])
def test_each_command_checks_and_solves_once(tmp_path, capsys, monkeypatch, command, config,
                                             exit_code, blocks, spectrum_solves, builds):
    # No search of H's pattern, since the oscillator model builds H as its
    # coupled blocks, one eigendecomposition per block, at most one V, formed
    # by build_projected_propagator, and at most one solve of V's spectrum,
    # whatever the command. The coupled model has one block per total
    # excitation number; uncoupled modes split into single states and give V
    # no magnitude gap, so compare skips its geometric check, and its one
    # solve is run_purification's default fidelity target. At cutoff 12
    # compare breaches on truncation, which it reports with exit code 3.
    searches = count_calls(monkeypatch, "_coupled_blocks")
    decompositions = count_calls(monkeypatch, "hermitian_eigendecompose")
    solves = count_calls(monkeypatch, "top_k_eigenpairs")
    propagators = count_calls(monkeypatch, "build_projected_propagator", home=engine)
    argv = [command, "--cutoff", "12"]
    if command != "figure1":
        argv += ["--config", write(tmp_path, config)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert searches == []
    assert len(decompositions) == blocks
    assert len(solves) == spectrum_solves
    assert len(propagators) == builds


@pytest.mark.parametrize("command", ["purify", "zeno"])
def test_explicit_hamiltonian_is_searched_once(tmp_path, capsys, monkeypatch, command):
    # A dense H read from a file is searched once for its coupled blocks,
    # the six single states of a decoupled H, and each is decomposed once.
    cfg = decoupled_hamiltonian_config(tmp_path)
    searches = count_calls(monkeypatch, "_coupled_blocks")
    decompositions = count_calls(monkeypatch, "hermitian_eigendecompose")
    code, _, _ = run_cli(capsys, command, "--config", cfg)
    assert code == 0
    assert len(searches) == 1 and len(searches[0]) == 6
    assert len(decompositions) == 6


def test_purify_solves_tied_propagator_once(tmp_path, capsys, monkeypatch):
    # |0.9| is tied, so V has no dominant pair: the one solve that finds
    # that serves both the target and the trajectory's fidelity column.
    save_matrix_file(str(tmp_path / "v.mat"), 1, 3, np.diag([0.9, 0.9, 0.5]))
    cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n')
    solves = count_calls(monkeypatch, "top_k_eigenpairs")
    code, out, err = run_cli(capsys, "purify", "--config", cfg, "--steps", "3")
    assert (code, err) == (0, "")
    assert len(solves) == 1 and solves[0].pairs == ()
    assert out == (
        "N,conditional_probability,yield,fidelity,purity,trace_distance_to_target\n"
        "0,1,1,,0.33333333333333331,\n"
        "1,0.62333333333333341,0.62333333333333341,,0.39311962023506525,\n"
        "2,0.73513368983957217,0.45823333333333338,,0.45763606138890589,\n"
        "3,0.78453989961446136,0.35950233333333337,,0.4858272163303573,\n"
    )


@pytest.mark.parametrize("command, config", [
    ("spectrum", "oscillator"), ("compare", "oscillator"),
    ("spectrum", "explicit"), ("purify", "explicit"),
])
def test_seed_does_not_change_output(tmp_path, capsys, command, config):
    if config == "oscillator":
        cfg = write(tmp_path, FIG1_CONFIG)
    else:
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        save_matrix_file(str(tmp_path / "v.mat"), 1, 4, 0.9 * v / np.linalg.norm(v, ord=2))
        cfg = write(tmp_path, '[model]\nkind = "explicit"\npropagator_file = "v.mat"\n'
                    "n_steps = 12\n")
    outputs = [run_cli(capsys, command, "--config", cfg, "--seed", seed)
               for seed in ("0", "12345")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, option", [
    ("spectrum", ["--steps", "3"]), ("purify", ["--jobs", "2"]),
])
def test_subcommand_refuses_option_it_ignores(tmp_path, capsys, command, option):
    cfg = write(tmp_path, FIG1_CONFIG)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", cfg, *option])
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("command, source", [
    ("spectrum", "hamiltonian"), ("purify", "hamiltonian"), ("zeno", "hamiltonian"),
    ("spectrum", "propagator"), ("purify", "propagator"),
])
def test_explicit_model_refuses_cutoff(tmp_path, capsys, command, source):
    # An explicit model has no Fock cutoff for --cutoff to override.
    if source == "hamiltonian":
        cfg = decoupled_hamiltonian_config(tmp_path)
    else:
        save_matrix_file(str(tmp_path / "v.mat"), 1, 2, np.diag([0.9, 0.5]))
        cfg = write(tmp_path, EXPLICIT_V)
    assert run_cli(capsys, command, "--config", cfg)[2] == ""
    assert run_cli(capsys, command, "--config", cfg, "--cutoff", "5") == (
        1, "", "error: --cutoff applies only to the oscillator model\n")


@pytest.mark.parametrize("command, exit_code", [
    ("figure1", 0), ("spectrum", 0), ("purify", 0), ("compare", 3), ("zeno", 0),
])
def test_commands_form_no_dense_hamiltonian(tmp_path, capsys, monkeypatch, command, exit_code):
    # The oscillator H is built from its excitation blocks; a dense D x D H
    # exists only once BipartiteSystem.hamiltonian is read, which no command
    # does. At cutoff 12 compare reports its truncation breach (exit code 3).
    def no_dense(system):
        d = system.dim_a * system.dim_b
        raise AssertionError(f"a dense {d}x{d} H was formed")

    monkeypatch.setattr(engine.BipartiteSystem, "hamiltonian", property(no_dense))
    argv = [command, "--cutoff", "12"]
    if command != "figure1":
        argv += ["--config", write(tmp_path, ZENO_SCAN_CONFIG)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code and out


def test_figure1_converged_from_cutoff_60_to_100(capsys):
    # Without a D x D H, cutoff 100 (D = 10,000) is within reach, and the
    # reference trajectory no longer moves beyond cutoff 60.
    tables = {}
    for cutoff in ("60", "100"):
        code, out, _ = run_cli(capsys, "figure1", "--cutoff", cutoff, "--steps", "10")
        assert code == 0
        rows = out.splitlines()[1:]
        tables[cutoff] = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert tables["60"].shape == tables["100"].shape == (11, 6)
    np.testing.assert_allclose(tables["100"], tables["60"], rtol=0, atol=1e-12)


def test_golden_figure1(capsys):
    # Byte-identical regression against a frozen run of the same command.
    golden = (GOLDEN_DIR / "figure1.csv").read_text(encoding="utf-8")
    code, out, _ = run_cli(capsys, "figure1")
    assert code == 0
    assert out == golden


def test_golden_zeno_scan(tmp_path, capsys):
    golden = (GOLDEN_DIR / "zeno_scan.csv").read_text(encoding="utf-8")
    cfg = write(tmp_path, ZENO_SCAN_CONFIG)
    code, out, _ = run_cli(capsys, "zeno", "--config", cfg)
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("config, argv, exit_code, golden", [
    (FIG1_CONFIG, ["--cutoff", "30"], 0, "compare_reference.txt"),
    (FIG1_CONFIG, ["--cutoff", "6"], 3, "compare_cutoff_6.txt"),
    (THERMAL_TAIL_CONFIG, ["--cutoff", "30"], 3, "compare_thermal_tail.txt"),
    (NO_GAP_CONFIG, [], 0, "compare_no_gap.txt"),
    (NEAR_TIE_CONFIG, [], 3, "compare_no_eigenpairs.txt"),
], ids=["reference", "cutoff-6", "thermal-tail", "no-gap", "no-eigenpairs"])
def test_golden_compare(tmp_path, capsys, config, argv, exit_code, golden):
    # One case per branch: every check runs and passes; the probe's cutoff
    # is refused, so no V exists for the checks that need one; the
    # closed-form trajectory is refused at its boundary; the geometric check
    # is skipped without a magnitude gap; and it is refused on tied pairs.
    code, out, err = run_cli(capsys, "compare", "--config", write(tmp_path, config), *argv)
    assert (code, err) == (exit_code, "")
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def fresh_process(args, env_overrides=None):
    """Run Python in a fresh interpreter that imports this checkout's zenopure."""
    env = dict(os.environ, **(env_overrides or {}))
    src = str(pathlib.Path(zenopure.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def run_fresh(args, env_overrides=None):
    proc = fresh_process(args, env_overrides)
    proc.check_returncode()
    return proc.stdout


@pytest.mark.parametrize("command", ["figure1", "zeno", "spectrum", "compare"])
def test_output_independent_of_blas_threads(tmp_path, command):
    argv = ["-m", "zenopure.cli", command]
    if command == "zeno":
        argv += ["--config", write(tmp_path, ZENO_SCAN_CONFIG)]
    elif command != "figure1":
        argv += ["--config", write(tmp_path, FIG1_CONFIG), "--cutoff", "30"]
    outputs = {threads: run_fresh(argv, {"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")}
    assert outputs["1"] == outputs["2"]
    golden = {"figure1": "figure1.csv", "zeno": "zeno_scan.csv",
              "compare": "compare_reference.txt"}.get(command)
    if golden is not None:
        assert outputs["1"] == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_import_does_not_load_scipy():
    for statement in ("import zenopure", "from zenopure import *"):
        out = run_fresh(["-c", f"import sys; {statement}; print('scipy' in sys.modules)"])
        assert out.strip() == "False", statement


def test_package_exports_each_module_all():
    # Each public name is declared once, in its module's __all__; the
    # package re-exports those lists in import order, as the same objects.
    modules = [zenopure.linalg, zenopure.engine, zenopure.oscillator, zenopure.config]
    assert zenopure.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(zenopure.__all__)) == len(zenopure.__all__)
    for module in modules:
        for name in module.__all__:
            obj = vars(module)[name]
            assert obj.__module__ == module.__name__, name
            assert getattr(zenopure, name) is obj


def test_no_public_callable_takes_a_seed_or_max_iter():
    # Neither ever changed a result; deflate served only its own tests. No
    # caller set a tolerance or threshold, and V solves its own eigenpairs.
    assert "deflate" not in zenopure.__all__
    # Second routes to work the package already does; no command used them.
    for gone in ("dominant_eigenpair", "block_eigendecompose", "eigenvector_u_n",
                 "survival_probability"):
        assert gone not in zenopure.__all__
    for name in zenopure.__all__:
        obj = getattr(zenopure, name)
        methods = [getattr(obj, attr) for attr in vars(obj)] if isinstance(obj, type) else []
        for member in [obj, *methods]:
            if not (isinstance(member, type) or inspect.isfunction(member)
                    or inspect.ismethod(member)):
                continue
            try:
                params = inspect.signature(member).parameters
            except ValueError:  # a builtin without a signature
                continue
            forbidden = {"seed", "max_iter", "tol", "threshold", "eigenpairs"}
            assert not forbidden & set(params), (name, member)


def test_tol_override(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, FIG1_CONFIG)
    monkeypatch.setenv("ZENOPURE_TOL", "1e-20")
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 3
    assert grab(out, "status") == "breach"
    monkeypatch.setenv("ZENOPURE_TOL", "banana")
    code, _, err = run_cli(capsys, "compare", "--config", cfg)
    assert code == 1 and "ZENOPURE_TOL" in err
    for raw in ("-1", "nan"):
        monkeypatch.setenv("ZENOPURE_TOL", raw)
        for command in ("compare", "spectrum"):
            code, out, err = run_cli(capsys, command, "--config", cfg)
            assert (code, out, err) == (1, "", "error: ZENOPURE_TOL must be positive\n")
