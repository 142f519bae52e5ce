"""Experiment configuration: a TOML-like text format with one [model] section.

The grammar is deliberately tiny so any language can parse it: comments run
from '#' to end of line, one section header per line, and 'key = value'
pairs where a value is an integer, a float, true/false, a double-quoted
string, or a flat [v, v, ...] list of scalars. Matrices travel in separate
text files: the header "dim_a dim_b" followed by "re im" pairs in row-major
order, all as whitespace-separated tokens in free layout (line breaks
anywhere). The header tokens are integers; each entry token is anything
Python's float() accepts.

Exactly one model source must be present: inline oscillator parameters, a
Hamiltonian file plus probe vector and interval, or a ready-made projected
propagator file (header "1 dim_b") for spectra of explicit contractions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "emit_config",
    "load_config",
    "load_matrix_file",
    "save_matrix_file",
]

class ConfigError(ValueError):
    """Configuration text or referenced model files are invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description.

    kind selects the model source. For "oscillator" the physical parameters
    are inline and tau is either given directly or requested as the tuned
    interval (tuned_m periods of the plus or minus normal mode). For
    "explicit" exactly one of hamiltonian_file (with probe and tau) or
    propagator_file is set; file paths are resolved relative to the config
    file by the loader.
    """

    kind: str
    big_omega: float | None = None
    omega: float | None = None
    g: float | None = None
    alpha: complex | None = None
    beta: float | None = None
    tau: float | None = None
    tuned_m: int | None = None
    tuned_branch: str | None = None
    n_max_a: int = 30
    n_max_b: int = 30
    n_steps: int = 30
    total_time: float | None = None
    n_values: tuple[int, ...] | None = None
    hamiltonian_file: str | None = None
    probe: tuple[complex, ...] | None = None
    propagator_file: str | None = None

    def __post_init__(self):
        if self.kind not in ("oscillator", "explicit"):
            raise ConfigError(f"kind must be 'oscillator' or 'explicit', got {self.kind!r}")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be at least 1")
        sources = [
            self.big_omega is not None,
            self.hamiltonian_file is not None,
            self.propagator_file is not None,
        ]
        if sum(sources) != 1:
            raise ConfigError("exactly one model source must be present")
        if self.kind == "oscillator":
            if self.big_omega is None:
                raise ConfigError("oscillator model needs inline parameters")
            for name in ("omega", "g", "alpha", "beta"):
                if getattr(self, name) is None:
                    raise ConfigError(f"oscillator model is missing {name!r}")
            has_tau = self.tau is not None
            has_tuned = self.tuned_m is not None or self.tuned_branch is not None
            if has_tau == has_tuned:
                raise ConfigError("give either tau or tuned_m/tuned_branch, not both")
            if has_tuned:
                if self.tuned_m is None or self.tuned_branch is None:
                    raise ConfigError("tuned interval needs both tuned_m and tuned_branch")
                if self.tuned_m < 1:
                    raise ConfigError("tuned_m must be a positive integer")
                if self.tuned_branch not in ("plus", "minus"):
                    raise ConfigError("tuned_branch must be 'plus' or 'minus'")
        else:
            if self.big_omega is not None:
                raise ConfigError("explicit model must not carry oscillator parameters")
            if self.hamiltonian_file is not None:
                if self.probe is None:
                    raise ConfigError("hamiltonian_file needs a probe vector")
                if self.tau is None:
                    raise ConfigError("hamiltonian_file needs tau")
            if self.propagator_file is not None and self.probe is not None:
                raise ConfigError("propagator_file does not take a probe vector")
        if self.n_max_a < 1 or self.n_max_b < 1:
            raise ConfigError("cutoffs must be positive")
        if self.total_time is not None and self.total_time <= 0:
            raise ConfigError("total_time must be positive")
        if self.n_values is not None:
            if not self.n_values or any(n < 1 for n in self.n_values):
                raise ConfigError("n_values must be a nonempty list of integers >= 1")


def _parse_scalar(text: str, where: str):
    s = text.strip()
    if not s:
        raise ConfigError(f"empty value {where}")
    if s.startswith('"'):
        if not (s.endswith('"') and len(s) >= 2) or '"' in s[1:-1]:
            raise ConfigError(f"malformed string {where}: {s!r}")
        return s[1:-1]
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse value {where}: {s!r}") from None


def _parse_value(text: str, where: str):
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ConfigError(f"unterminated list {where}")
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, where) for part in inner.split(",")]
    return _parse_scalar(s, where)


def _strip_comment(line: str) -> str:
    # '#' only opens a comment outside quoted strings.
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_sections(text: str) -> dict[str, dict]:
    sections: dict[str, dict] = {}
    current: dict | None = None
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            current_name = line[1:-1].strip()
            if current_name in sections:
                raise ConfigError(f"line {lineno}: duplicate section {current_name!r}")
            current = {}
            sections[current_name] = current
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = _parse_value(value, f"for {key!r} (line {lineno})")
    return sections


def _take(raw: dict, key: str, kinds, coerce=None, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"[model] is missing required key {key!r}")
        return default
    value = raw.pop(key)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"key {key!r} has the wrong type")
    return coerce(value) if coerce else value


def _take_number_list(raw: dict, key: str, as_int: bool):
    if key not in raw:
        return None
    value = raw.pop(key)
    if not isinstance(value, list):
        raise ConfigError(f"key {key!r} must be a list")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"key {key!r} must hold numbers only")
        if as_int:
            if not isinstance(item, int):
                raise ConfigError(f"key {key!r} must hold integers only")
            out.append(int(item))
        else:
            out.append(float(item))
    return tuple(out)


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text into an ExperimentConfig."""
    sections = _parse_sections(text)
    if set(sections) != {"model"}:
        raise ConfigError(
            f"expected exactly one [model] section, found {sorted(sections) or 'none'}"
        )
    raw = dict(sections["model"])
    kind = _take(raw, "kind", str, required=True)
    alpha_re = _take(raw, "alpha_re", (int, float), float)
    alpha_im = _take(raw, "alpha_im", (int, float), float)
    alpha = None
    if alpha_re is not None or alpha_im is not None:
        alpha = complex(alpha_re or 0.0, alpha_im or 0.0)
    probe = None
    probe_re = _take_number_list(raw, "probe_re", as_int=False)
    probe_im = _take_number_list(raw, "probe_im", as_int=False)
    if probe_re is not None or probe_im is not None:
        if probe_re is None:
            raise ConfigError("probe_im given without probe_re")
        if probe_im is None:
            probe_im = tuple(0.0 for _ in probe_re)
        if len(probe_re) != len(probe_im):
            raise ConfigError("probe_re and probe_im differ in length")
        probe = tuple(complex(r, i) for r, i in zip(probe_re, probe_im))
    cfg = ExperimentConfig(
        kind=kind,
        big_omega=_take(raw, "big_omega", (int, float), float),
        omega=_take(raw, "omega", (int, float), float),
        g=_take(raw, "g", (int, float), float),
        alpha=alpha,
        beta=_take(raw, "beta", (int, float), float),
        tau=_take(raw, "tau", (int, float), float),
        tuned_m=_take(raw, "tuned_m", int),
        tuned_branch=_take(raw, "tuned_branch", str),
        n_max_a=_take(raw, "n_max_a", int, default=30),
        n_max_b=_take(raw, "n_max_b", int, default=30),
        n_steps=_take(raw, "n_steps", int, default=30),
        total_time=_take(raw, "total_time", (int, float), float),
        n_values=_take_number_list(raw, "n_values", as_int=True),
        hamiltonian_file=_take(raw, "hamiltonian_file", str),
        probe=probe,
        propagator_file=_take(raw, "propagator_file", str),
    )
    if raw:
        raise ConfigError(f"unknown keys in [model]: {sorted(raw)}")
    return cfg


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def emit_config(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config(emit_config(c)) == c."""
    lines = ["[model]", f'kind = "{cfg.kind}"']

    def put(key, value):
        lines.append(f"{key} = {_fmt(value)}")

    for key in ("big_omega", "omega", "g"):
        if getattr(cfg, key) is not None:
            put(key, getattr(cfg, key))
    if cfg.alpha is not None:
        put("alpha_re", cfg.alpha.real)
        put("alpha_im", cfg.alpha.imag)
    if cfg.beta is not None:
        put("beta", cfg.beta)
    if cfg.tau is not None:
        put("tau", cfg.tau)
    if cfg.tuned_m is not None:
        lines.append(f"tuned_m = {cfg.tuned_m}")
        lines.append(f'tuned_branch = "{cfg.tuned_branch}"')
    lines.append(f"n_max_a = {cfg.n_max_a}")
    lines.append(f"n_max_b = {cfg.n_max_b}")
    lines.append(f"n_steps = {cfg.n_steps}")
    if cfg.total_time is not None:
        put("total_time", cfg.total_time)
    if cfg.n_values is not None:
        lines.append(f"n_values = [{', '.join(str(n) for n in cfg.n_values)}]")
    if cfg.hamiltonian_file is not None:
        lines.append(f'hamiltonian_file = "{cfg.hamiltonian_file}"')
    if cfg.probe is not None:
        lines.append(f"probe_re = [{', '.join(_fmt(z.real) for z in cfg.probe)}]")
        lines.append(f"probe_im = [{', '.join(_fmt(z.imag) for z in cfg.probe)}]")
    if cfg.propagator_file is not None:
        lines.append(f'propagator_file = "{cfg.propagator_file}"')
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _parse_numbers(text: str, count: int) -> np.ndarray:
    """Return the float() of each whitespace-separated token of text, as an array.

    np.fromstring parses with the same correctly rounded routine as float(),
    in one C pass and without a Python object per token. It disagrees with
    float() at the edges: it returns [-1.] for whitespace-only text, accepts
    "nan(1)", rejects "1_0", NBSP separators and non-ASCII digits, and older
    numpy returns a partial array with a warning on unmatched data. So its
    result stands only when it neither raised nor warned, is all finite and
    holds the count values the caller expects; otherwise the token loop
    decides, with float()'s values and its ValueError.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.fromstring(text, dtype=float, sep=" ")
    except (ValueError, Warning):
        values = None
    if values is not None and values.size == count and np.isfinite(values).all():
        return values
    return np.array([float(t) for t in text.split()], dtype=float)


def load_matrix_file(path: str) -> tuple[int, int, np.ndarray]:
    """Read a complex matrix file: "dim_a dim_b" header, then re/im pairs.

    Returns (dim_a, dim_b, matrix) where the matrix has dimension
    dim_a*dim_b and entries are row-major in the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read().split(None, 2)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from exc
    if len(head) < 2:
        raise ConfigError(f"matrix file {path!r} lacks the dimension header")
    try:
        dim_a, dim_b = int(head[0]), int(head[1])
        d = dim_a * dim_b
        values = _parse_numbers(head[2] if len(head) > 2 else "", 2 * d * d)
    except ValueError as exc:
        raise ConfigError(f"matrix file {path!r} is not numeric: {exc}") from exc
    if dim_a < 1 or dim_b < 1:
        raise ConfigError(f"matrix file {path!r} has nonpositive dimensions")
    if values.size != 2 * d * d:
        raise ConfigError(
            f"matrix file {path!r} holds {values.size} numbers, expected {2 * d * d}"
        )
    pairs = values.reshape(d * d, 2)
    # 1j * inf is nan+infj, and the matrix is refused as non-finite where used.
    with np.errstate(invalid="ignore"):
        matrix = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)
    return dim_a, dim_b, matrix


def save_matrix_file(path: str, dim_a: int, dim_b: int, matrix: np.ndarray) -> None:
    """Write a complex matrix in the re/im pair format load_matrix_file reads."""
    m = np.asarray(matrix, dtype=complex)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match header {dim_a} {dim_b}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{dim_a} {dim_b}\n")
        for row in m:
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")
