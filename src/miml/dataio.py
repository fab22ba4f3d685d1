"""Bit-exact text formats for datasets, models, and configuration.

Dataset format "miml/1" (one example per line):

    miml/1 T=2 d=3
    labels: sea trees
    img7 | sea,trees | 0.5 1.0 2.0 ; -1.0 0.0 3.5
    img9 | sea | 0.25 0.5 0.75

Reals are written as the shortest decimal that round-trips to the same
binary64 value, so serialization is lossless and byte-deterministic.
Models travel in a one-line envelope header "miml-model/1 <algo>" followed
by a canonical JSON body.  Config files are flat key=value text.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass
from typing import Collection, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import Bags, MimlDataset, label_matrix, require_valid

DATASET_VERSION = "miml/1"
MODEL_VERSION = "miml-model/1"

_NAME_FORBIDDEN = set(" \t|,;")


class DataFormatError(ValueError):
    """Malformed file content; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_real(x: float) -> str:
    """Shortest decimal that parses back to the identical float64."""
    return repr(float(x))


def default_label_names(T: int) -> Tuple[str, ...]:
    return tuple(f"l{i}" for i in range(T))


def serialize_dataset(ds: MimlDataset, label_names: Optional[Sequence[str]] = None) -> str:
    """Canonical text form: fixed field order, newline endings, shortest
    round-trip decimals."""
    require_valid(ds)
    names = tuple(label_names) if label_names is not None else default_label_names(ds.T)
    if len(names) != ds.T:
        raise ValueError(f"{len(names)} label names for T={ds.T}")
    for name in names:
        if not name or set(name) & _NAME_FORBIDDEN:
            raise ValueError(f"bad label name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate label names")

    lines = [f"{DATASET_VERSION} T={ds.T} d={ds.d}", "labels: " + " ".join(names)]
    bags = ds.bags()
    rows = [" ".join(map(format_real, row)) for row in bags.X.tolist()]
    ends = bags.offsets.tolist()
    for ident, labels, a, b in zip(bags.ids, ds.Y.tolist(), ends[:-1], ends[1:]):
        label_part = ",".join(name for name, y in zip(names, labels) if y)
        lines.append(f"{ident} | {label_part} | {' ; '.join(rows[a:b])}")
    return "\n".join(lines) + "\n"


def parse_dataset_with_names(text: str) -> Tuple[MimlDataset, Tuple[str, ...]]:
    lines = text.splitlines()
    if not lines:
        raise DataFormatError(1, "empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != DATASET_VERSION:
        raise DataFormatError(1, f"expected header '{DATASET_VERSION} T=<int> d=<int>'")
    try:
        if not head[1].startswith("T=") or not head[2].startswith("d="):
            raise ValueError
        T = int(head[1][2:])
        d = int(head[2][2:])
    except ValueError:
        raise DataFormatError(1, f"malformed header fields {head[1]!r} {head[2]!r}") from None
    if T < 1 or d < 1:
        raise DataFormatError(1, f"T={T} and d={d} must be >= 1")
    if len(lines) < 2 or not lines[1].startswith("labels:"):
        raise DataFormatError(2, "expected 'labels: <name> ...'")
    names = tuple(lines[1][len("labels:"):].split())
    if len(names) != T:
        raise DataFormatError(2, f"{len(names)} label names, header says T={T}")
    if len(set(names)) != len(names):
        raise DataFormatError(2, "duplicate label names")
    index = {name: i for i, name in enumerate(names)}

    ids, label_sets, ends, vals = [], [], [0], []
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        parts = raw.split("|")
        if len(parts) != 3:
            raise DataFormatError(lineno, "expected '<id> | <labels> | <instances>'")
        ident = parts[0].strip()
        if not ident:
            raise DataFormatError(lineno, "empty example id")
        labels = set()
        for token in parts[1].split(","):
            token = token.strip()
            if not token:
                raise DataFormatError(lineno, "empty label name")
            if token not in index:
                raise DataFormatError(lineno, f"unknown label {token!r}")
            labels.add(index[token])
        chunks = parts[2].split(";")
        for chunk in chunks:
            fields = chunk.split()
            if not fields:
                raise DataFormatError(lineno, "empty instance")
            try:
                vals.extend(map(float, fields))
            except ValueError:
                raise DataFormatError(lineno, f"non-numeric feature in {chunk.strip()!r}") from None
            if len(fields) != d:
                raise DataFormatError(lineno, f"instance has {len(fields)} features, expected d={d}")
        ends.append(ends[-1] + len(chunks))
        ids.append(ident)
        label_sets.append(labels)

    X = np.array(vals, dtype=np.float64).reshape(len(vals) // d, d)
    ds = MimlDataset(Bags(ids, X, ends), label_matrix(label_sets, T))
    require_valid(ds)
    return ds, names


def parse_dataset(text: str) -> MimlDataset:
    """Parse a "miml/1" stream; the result always passes validation."""
    return parse_dataset_with_names(text)[0]


@dataclass(frozen=True)
class ModelEnvelope:
    """Self-describing model container shared by all five learners; the
    loader (``miml eval``) checks the algorithm tag against its registry."""

    algorithm: str
    hyper: dict
    payload: dict
    version: str = MODEL_VERSION


def serialize_model(env: ModelEnvelope) -> str:
    if env.version != MODEL_VERSION:
        raise ValueError(f"unsupported envelope version {env.version!r}")
    body = json.dumps({"hyper": env.hyper, "payload": env.payload},
                      sort_keys=True, allow_nan=False)
    return f"{MODEL_VERSION} {env.algorithm}\n{body}\n"


def _reject_constant(name: str):
    """``json.loads`` hook for NaN and +-Infinity; ``serialize_model`` writes neither."""
    raise DataFormatError(2, f"non-finite number {name} in model body")


def parse_model(text: str) -> ModelEnvelope:
    head, _, body = text.partition("\n")
    fields = head.split()
    if len(fields) != 2 or fields[0] != MODEL_VERSION:
        raise DataFormatError(1, f"expected header '{MODEL_VERSION} <algo>'")
    try:
        data = json.loads(body, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DataFormatError(exc.lineno + 1, f"bad model body: {exc.msg}") from None
    if not isinstance(data, dict):
        raise DataFormatError(2, "model body must be a JSON object")
    for key in ("hyper", "payload"):
        if not isinstance(data.get(key), dict):
            raise DataFormatError(2, f"model body needs a {key!r} object")
    return ModelEnvelope(algorithm=fields[1], hyper=data["hyper"], payload=data["payload"])


def parse_config(text: str) -> Dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise DataFormatError(lineno, f"expected 'key=value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_value(key: str, raw: str, hint):
    """One config value cast to ``hint``: int, float, str, bool, or
    Optional of one of these; bools accept 1/0/true/false/yes/no/on/off."""
    if typing.get_origin(hint) is typing.Union:    # Optional[X] is Union[X, None]
        hint = typing.get_args(hint)[0]
    raw = raw.strip()
    if hint is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        return hint(raw)
    except ValueError:
        raise ValueError(
            f"config key {key}: expected {hint.__name__}, got {raw!r}") from None


def config_dataclass(cls, cfg: Mapping[str, str], prefix: str = "",
                     ignore: Collection[str] = ()):
    """Build the dataclass ``cls`` from flat key=value strings.

    Each field is read from the key ``<prefix>.<name>`` (just ``<name>``
    with no prefix), where ``name`` is the field's ``metadata["key"]`` or
    else its own name, and cast by its type hint.  Keys under a prefix in
    ``ignore`` are skipped; any other key that names no field is a
    ValueError.
    """
    lead = prefix + "." if prefix else ""
    by_key = {lead + f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    values = {}
    for key, raw in cfg.items():
        f = by_key.get(key)
        if f is not None:
            values[f.name] = _parse_value(key, raw, hints[f.name])
        elif "." not in key or key.partition(".")[0] not in ignore:
            raise ValueError(f"unknown config key {key!r}")
    return cls(**values)
