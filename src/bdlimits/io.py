"""CSV output and flat config-file input for the CLI and experiments.

All writers emit '\n' line endings and repr-formatted floats, so a rerun
with the same inputs produces byte-identical files.

Config files are flat key=value text.  The first meaningful line must be
the version header ``schema=1``; blank lines and '#' comments are ignored;
keys may not repeat.  The documented schema lives in docs/config-schema.md.
"""

from __future__ import annotations

import csv
import os
from functools import partialmethod

import numpy as np

from .chain import ChainSpec, Trajectory, enumerate_states
from .errors import ConfigError, DimensionMismatchError, read_text
from .experiments import ConvergenceTable
from .graphs import Graph, alpha_beta_matrix, load_graph, validate_interaction
from .spectral import SpectralReport

SCHEMA_VERSION = 1


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(path, header, rows) -> None:
    """One CSV file: the header row, then each row with every cell through _fmt."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_fmt(cell) for cell in row] for row in rows)


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Event list as 't,vertex,sign' rows."""
    _csv(
        path,
        ["t", "vertex", "sign"],
        zip(trajectory.times, trajectory.vertices, trajectory.signs),
    )


def write_distribution_csv(path, spec: ChainSpec, probabilities) -> None:
    """'state_index,spin_0..spin_{n-1},probability' rows in canonical order,
    one per configuration of spec, whatever cap the law was solved under."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (spec.num_states(),):
        raise DimensionMismatchError(
            f"{probs.shape} probabilities for {spec.num_states()} configurations"
        )
    states = enumerate_states(spec, cap=probs.size).tolist()
    _csv(
        path,
        ["state_index"] + [f"spin_{x}" for x in range(spec.num_vertices)] + ["probability"],
        ([i, *spins, p] for i, (spins, p) in enumerate(zip(states, probs.tolist()))),
    )


def write_spectral_report_csv(path, report: SpectralReport) -> None:
    _csv(
        path,
        ["method", "pd", "min_eig", "max_eig"],
        [[report.method, report.positive_definite, report.min_eigenvalue,
          report.max_eigenvalue]],
    )


def write_eigenvalues_csv(path, eigenvalues) -> None:
    _csv(path, ["eigenvalue"], ([v] for v in np.asarray(eigenvalues, dtype=float)))


def write_table_csv(path, table: ConvergenceTable) -> None:
    _csv(
        path,
        ["level", "epsilon", "statistic", "empirical", "limit", "abs_error", "mc_stderr"],
        (
            [row.level, row.epsilon, row.statistic, row.empirical, row.limit,
             row.abs_error, row.mc_stderr]
            for row in table.rows
        ),
    )


def write_scalar_csv(path, name: str, value: float) -> None:
    _csv(path, [name], [[value]])


def read_config(path) -> dict[str, str]:
    """Parse a flat key=value config file with the schema=1 header."""
    lines = read_text(path, "config file").splitlines()
    entries: dict[str, str] = {}
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not saw_header:
            if key != "schema" or value != str(SCHEMA_VERSION):
                raise ConfigError(
                    f"line {lineno}: first entry must be schema={SCHEMA_VERSION}"
                )
            saw_header = True
            continue
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    if not saw_header:
        raise ConfigError(f"missing schema={SCHEMA_VERSION} header in {path}")
    return entries


def _floats(raw: str) -> np.ndarray:
    return np.array([float(tok) for tok in raw.split(",")])


# what each kind of ConfigView._parse reads, for its error message
_KINDS = {int: "an integer", float: "a number", _floats: "comma-separated numbers"}


class ConfigView:
    """Typed accessors over one config dict; tracks which keys were read."""

    def __init__(self, entries: dict[str, str], base_dir: str = "."):
        self.entries = dict(entries)
        self.base_dir = base_dir
        self.used: set[str] = set()

    def get_str(self, key: str, default=None, required: bool = False) -> str | None:
        if key in self.entries:
            self.used.add(key)
            return self.entries[key]
        if required:
            raise ConfigError(f"missing required field {key!r}")
        return default

    def _parse(self, kind, key, default=None, required=False):
        """The value of key read by kind (int, float or _floats), or default."""
        raw = self.get_str(key, None, required)
        if raw is None:
            return default
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"field {key!r} must be {_KINDS[kind]}, got {raw!r}") from exc
        # np.isfinite cannot take an int past int64, and every int is finite
        if kind is not int and not np.all(np.isfinite(value)):
            raise ConfigError(f"field {key!r} must be finite, got {raw!r}")
        return value

    get_int = partialmethod(_parse, int)
    get_float = partialmethod(_parse, float)
    get_vector = partialmethod(_parse, _floats)

    def get_path(self, key, default=None, required=False):
        raw = self.get_str(key, default, required)
        if raw is None:
            return None
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)

    def optional(self, **kinds) -> dict:
        """{key: value} for each key of kinds (int or float) that the file
        sets, as keyword arguments; a key it leaves out keeps the default of
        the function or config class it is passed to."""
        return {
            key: self._parse(kind, key) for key, kind in kinds.items() if key in self.entries
        }

    def reject_unknown(self) -> None:
        unknown = set(self.entries) - self.used
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")


def parse_matrix(view: ConfigView, key: str, graph: Graph) -> np.ndarray:
    """Interaction matrix from a config field.

    Accepted forms: 'zero', 'alpha_beta:a,b' for a*E + b*adjacency,
    'diag:v0,...,v{n-1}', and 'dense:r00,r01;r10,r11' with ';' between rows.
    """
    raw = view.get_str(key, required=True)
    n = graph.num_vertices
    kind, _, rest = raw.partition(":")
    kind = kind.strip()
    try:
        if kind == "zero":
            matrix = np.zeros((n, n))
        elif kind == "alpha_beta":
            alpha, beta = (float(tok) for tok in rest.split(","))
            matrix = alpha_beta_matrix(graph, alpha, beta)
        elif kind == "diag":
            vals = [float(tok) for tok in rest.split(",")]
            if len(vals) != n:
                raise ConfigError(
                    f"field {key!r}: diag needs {n} entries, got {len(vals)}"
                )
            matrix = np.diag(vals)
        elif kind == "dense":
            rows = [
                [float(tok) for tok in row.split(",")] for row in rest.split(";")
            ]
            matrix = np.array(rows, dtype=float)
        else:
            raise ConfigError(
                f"field {key!r}: unknown matrix form {kind!r} "
                "(expected zero, alpha_beta, diag, or dense)"
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: could not parse {raw!r}") from exc
    return validate_interaction(graph, matrix)


def _load_model(view: ConfigView) -> tuple[Graph, np.ndarray, np.ndarray]:
    """The graph and its birth and death matrices from the fields graph, ab, ad."""
    graph = load_graph(view.get_path("graph", required=True))
    return graph, parse_matrix(view, "ab", graph), parse_matrix(view, "ad", graph)


def load_chain_spec(view: ConfigView) -> ChainSpec:
    """ChainSpec from the fields graph, ab, ad, l, r."""
    graph, ab, ad = _load_model(view)
    l = view.get_int("l", required=True)
    r = view.get_int("r", required=True)
    return ChainSpec(graph=graph, birth_matrix=ab, death_matrix=ad, l=l, r=r)
