"""Experiment configuration: TOML, one [model] table.

Matrices travel in separate text files: the header "dim_a dim_b" followed
by "re im" pairs in row-major order, all as whitespace-separated tokens in
free layout (line breaks anywhere). The header tokens are integers; each
entry token is anything Python's float() accepts.

Exactly one model source must be present: inline oscillator parameters, a
Hamiltonian file plus probe vector and interval, or a ready-made projected
propagator file (header "1 dim_b") for spectra of explicit contractions.

The table _KEYS is the one list of [model] keys: their types, and the order
in which parse_config checks them and emit_config writes them.
"""

from __future__ import annotations

import itertools
import os
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
    file by the loader. A key the chosen model would ignore is refused: an
    explicit model takes none of the oscillator parameters (the cutoffs
    n_max_a and n_max_b included, which default to 30 for the oscillator
    model only), only a hamiltonian_file takes a probe, and a
    propagator_file takes no tau.
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
    n_max_a: int | None = None
    n_max_b: int | None = None
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
            if self.probe is not None:
                raise ConfigError("oscillator model does not take a probe vector")
            has_tau = self.tau is not None
            has_tuned = self.tuned_m is not None or self.tuned_branch is not None
            if has_tau and has_tuned:
                raise ConfigError("give either tau or tuned_m/tuned_branch, not both")
            if not (has_tau or has_tuned):
                raise ConfigError("oscillator model needs tau or tuned_m/tuned_branch")
            if has_tuned:
                if self.tuned_m is None or self.tuned_branch is None:
                    raise ConfigError("tuned interval needs both tuned_m and tuned_branch")
                if self.tuned_m < 1:
                    raise ConfigError("tuned_m must be a positive integer")
                if self.tuned_branch not in ("plus", "minus"):
                    raise ConfigError("tuned_branch must be 'plus' or 'minus'")
            for name in ("n_max_a", "n_max_b"):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, 30)
            if self.n_max_a < 1 or self.n_max_b < 1:
                raise ConfigError("cutoffs must be positive")
        else:
            oscillator_only = ("big_omega", "omega", "g", "alpha", "beta",
                               "tuned_m", "tuned_branch", "n_max_a", "n_max_b")
            if any(getattr(self, name) is not None for name in oscillator_only):
                raise ConfigError("explicit model must not carry oscillator parameters")
            if self.hamiltonian_file is not None:
                if self.probe is None:
                    raise ConfigError("hamiltonian_file needs a probe vector")
                if self.tau is None:
                    raise ConfigError("hamiltonian_file needs tau")
            if self.propagator_file is not None:
                if self.probe is not None:
                    raise ConfigError("propagator_file does not take a probe vector")
                if self.tau is not None:
                    raise ConfigError("propagator_file does not take tau")
        if self.total_time is not None and self.total_time <= 0:
            raise ConfigError("total_time must be positive")
        if self.n_values is not None:
            if not self.n_values or any(n < 1 for n in self.n_values):
                raise ConfigError("n_values must be a nonempty list of integers >= 1")


_NUMBER = (int, float)

#: Every [model] key, in the order parse_config checks and emit_config writes
#: them, with the types a scalar key's value may have (never a bool) and the
#: type it is stored as; a list key has list and the type of its items.
_KEYS = {
    "kind": (str, str),
    "alpha_re": (_NUMBER, float),
    "alpha_im": (_NUMBER, float),
    "probe_re": (list, float),
    "probe_im": (list, float),
    "big_omega": (_NUMBER, float),
    "omega": (_NUMBER, float),
    "g": (_NUMBER, float),
    "beta": (_NUMBER, float),
    "tau": (_NUMBER, float),
    "tuned_m": (int, int),
    "tuned_branch": (str, str),
    "n_max_a": (int, int),
    "n_max_b": (int, int),
    "n_steps": (int, int),
    "total_time": (_NUMBER, float),
    "n_values": (list, int),
    "hamiltonian_file": (str, str),
    "propagator_file": (str, str),
}


def _take(raw: dict, key: str):
    """Pop key from raw and return its value as _KEYS stores it (a list as a
    tuple), or None when raw lacks the key."""
    if key not in raw:
        return None
    value = raw.pop(key)
    kinds, stored = _KEYS[key]
    if kinds is not list:
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise ConfigError(f"key {key!r} has the wrong type")
        return _stored(key, stored, value)
    if not isinstance(value, list):
        raise ConfigError(f"key {key!r} must be a list")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, _NUMBER):
            raise ConfigError(f"key {key!r} must hold numbers only")
        if stored is int and not isinstance(item, int):
            raise ConfigError(f"key {key!r} must hold integers only")
    return tuple(_stored(key, stored, item) for item in value)


def _stored(key: str, stored: type, value):
    """value as the type ``stored``; an integer too large for a float is
    refused naming its key."""
    try:
        return stored(value)
    except OverflowError:
        raise ConfigError(f"key {key!r} holds an integer too large for a float") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse TOML text holding one [model] table into an ExperimentConfig."""
    import tomllib  # here, so that importing zenopure does not load it

    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None
    if list(document) != ["model"] or not isinstance(document["model"], dict):
        found = ", ".join(f"{key} ({type(value).__name__})" for key, value in document.items())
        raise ConfigError(f"expected exactly one [model] table, found {found or 'none'}")
    raw = document["model"]
    if "kind" not in raw:
        raise ConfigError("[model] is missing required key 'kind'")
    fields = {key: _take(raw, key) for key in _KEYS}
    alpha_re, alpha_im = fields.pop("alpha_re"), fields.pop("alpha_im")
    if alpha_re is not None or alpha_im is not None:
        fields["alpha"] = complex(alpha_re or 0.0, alpha_im or 0.0)
    probe_re, probe_im = fields.pop("probe_re"), fields.pop("probe_im")
    if probe_re is not None or probe_im is not None:
        if probe_re is None:
            raise ConfigError("probe_im given without probe_re")
        if probe_im is None:
            probe_im = tuple(0.0 for _ in probe_re)
        if len(probe_re) != len(probe_im):
            raise ConfigError("probe_re and probe_im differ in length")
        fields["probe"] = tuple(complex(r, i) for r, i in zip(probe_re, probe_im))
    # An absent key takes the field's default.
    cfg = ExperimentConfig(**{key: value for key, value in fields.items() if value is not None})
    if raw:
        raise ConfigError(f"unknown keys in [model]: {sorted(raw)}")
    return cfg


#: The escapes emit_config writes in a TOML basic string: backslash, quote
#: and every control character.
_TOML_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"',
                 **{code: f"\\u{code:04x}" for code in (*range(0x20), 0x7F)}}


def _fmt(x) -> str:
    if isinstance(x, str):
        return f'"{x.translate(_TOML_ESCAPES)}"'
    if isinstance(x, tuple):
        return f"[{', '.join(map(_fmt, x))}]"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def emit_config(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config(emit_config(c)) == c: every
    field that is not None, in the order of _KEYS."""
    values = vars(cfg).copy()
    if cfg.alpha is not None:
        values.update(alpha_re=cfg.alpha.real, alpha_im=cfg.alpha.imag)
    if cfg.probe is not None:
        values.update(probe_re=tuple(z.real for z in cfg.probe),
                      probe_im=tuple(z.imag for z in cfg.probe))
    lines = [f"{key} = {_fmt(values[key])}" for key in _KEYS if values.get(key) is not None]
    return "\n".join(["[model]"] + lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


#: Bytes a matrix file is read in at a time; the loader holds no more of
#: its text than a few of these.
_CHUNK_BYTES = 1 << 16

#: The bytes that separate tokens for both bytes.split() and np.fromstring.
_ASCII_SPACE = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c")

#: The UTF-8 of the other characters str.split() separates tokens at.
_OTHER_SPACE = tuple(c.encode() for c in "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002"
                     "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _token_runs(fh):
    """The bytes of the binary file fh, _CHUNK_BYTES at a time, each run cut
    after its last ASCII whitespace byte, or when it holds none after its last
    other separator, so that no token is split between two runs; what follows
    the cut starts the next run. Runs may be empty."""
    carry = b""
    while chunk := fh.read(_CHUNK_BYTES):
        chunk = carry + chunk  # the bytes read alone are not kept
        cut = max(map(chunk.rfind, _ASCII_SPACE)) + 1
        if not cut:
            # UTF-8 is self-synchronising, so each match is a whole character.
            cut = max((at + len(space) for space in _OTHER_SPACE
                       if (at := chunk.rfind(space)) >= 0), default=0)
        carry = chunk[cut:]
        yield chunk[:cut]
    yield carry


def _parse_run(run: bytes) -> np.ndarray:
    """The float() of each whitespace-separated token in the byte run.

    np.fromstring parses with the same correctly rounded routine as float(),
    in one C pass and without a Python object per token. It disagrees with
    float() at the edges: it returns [-1.] for whitespace-only text, accepts
    "nan(1)", rejects "1_0", NBSP and the other non-ASCII separators and
    digits, and older numpy returns a partial array with a warning on
    unmatched data. So its array stands only when the run is ASCII and not
    blank, np.fromstring raises and warns nothing, and every value is
    finite. Any other run is decoded as UTF-8 and split into tokens, each
    parsed with float(), which decides its values or its ValueError; a run
    that is not UTF-8 raises UnicodeDecodeError.
    """
    if run and run.isascii() and not run.isspace():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                part = np.fromstring(run, dtype=float, sep=" ")
            except (ValueError, Warning):
                pass
            else:
                if np.isfinite(part).all():
                    return part
    return np.fromiter(map(float, run.decode("utf-8").split()), float)


def _as_complex(values: np.ndarray, d: int) -> np.ndarray:
    """The d x d matrix of the row-major re/im pairs in values, each entry
    re + 1j * im as numpy forms it, written over values a run of entries at
    a time so that the matrix is held once."""
    pairs = values.reshape(d * d, 2)
    matrix = values.view(complex)
    step = max(1, _CHUNK_BYTES // matrix.itemsize)
    # 1j * inf is nan+infj, and the matrix is refused as non-finite where used.
    with np.errstate(invalid="ignore"):
        for start in range(0, d * d, step):
            run = slice(start, start + step)
            matrix[run] = pairs[run, 0] + 1j * pairs[run, 1]
    return matrix.reshape(d, d)


def load_matrix_file(path: str) -> tuple[int, int, np.ndarray]:
    """Read a complex matrix file: "dim_a dim_b" header, then re/im pairs.

    Returns (dim_a, dim_b, matrix) where the matrix has dimension
    dim_a*dim_b and entries are row-major in the file.

    The file is read a chunk at a time, cut into runs of whole tokens
    (``_token_runs``). The two header tokens are parsed with int(), and each
    later run with ``_parse_run``: np.fromstring for a run of plain ASCII
    numbers, float() token by token for that run alone otherwise. The values
    go into one array of 2 (dim_a dim_b)^2 numbers that becomes the matrix,
    so the heap peaks near the matrix's size rather than the text's whenever
    no run is much longer than a chunk. Past that array's end, or when the
    header asks for nonpositive dimensions or more numbers than the file's
    size can hold, the numbers are only counted.

    Refusals come in the order of a file read whole and split into tokens:
    fewer than two tokens; the first token int() or float() refuses;
    nonpositive dimensions; a wrong count of numbers. A byte that is not
    UTF-8 is refused, with its offset in the file, when its run is reached:
    after a refused token in an earlier run, before one in its own.
    """
    offset = 0  # the file offset of the run being parsed
    fields: list[str] = []
    try:
        with open(path, "rb") as fh:
            runs = _token_runs(fh)
            head = ""
            for run in runs:
                head = (head + run.decode("utf-8")).lstrip()
                offset += len(run)
                if len(fields := head.split(None, 2)) >= 2:
                    break
            if len(fields) >= 2:
                dim_a, dim_b = int(fields[0]), int(fields[1])
                count = 2 * (dim_a * dim_b) ** 2
                # count tokens take at least 2 count - 1 bytes: a larger header
                # is refused by its count, without allocating count values first.
                fits = dim_a >= 1 and dim_b >= 1 and 2 * count - 1 <= os.fstat(fh.fileno()).st_size
                values = np.empty(count if fits else 0)
                # The text after the header, as bytes; the header's text is not kept.
                head = fields.pop().encode() if len(fields) > 2 else b""
                offset -= len(head)
                read = 0
                for run in itertools.chain([head], runs):
                    part = _parse_run(run)
                    offset += len(run)
                    if read + part.size <= values.size:
                        values[read:read + part.size] = part
                    read += part.size
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"matrix file {path!r} is not UTF-8: {exc.reason} at byte {offset + exc.start}"
        ) from exc
    except ValueError as exc:
        raise ConfigError(f"matrix file {path!r} is not numeric: {exc}") from exc
    if len(fields) < 2:
        raise ConfigError(f"matrix file {path!r} lacks the dimension header")
    if dim_a < 1 or dim_b < 1:
        raise ConfigError(f"matrix file {path!r} has nonpositive dimensions")
    if read != count:
        raise ConfigError(f"matrix file {path!r} holds {read} numbers, expected {count}")
    return dim_a, dim_b, _as_complex(values, dim_a * dim_b)


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
