"""Configuration schema: field typing, canonical units, and fixed per-field scaling.

A run configuration is a fixed, ordered set of fields. Numerical fields carry a
fixed multiplicative scale so that values from very different ranges (learning
rates around 1e-3, batch sizes around 1e3) land in comparable magnitudes before
they reach any encoder. A few fields that only take a handful of discrete
values in practice (the momentum pair, the stability constant, the Kron
preconditioner learning rate) are treated as categorical; the stability
constant is stored and encoded as its negative base-10 log, so 1e-8 becomes
the token "8".

The canonical field order and the scale table are versioned and can be dumped
as a machine-readable table (``losscast schema [--frac] [--output FILE]``) for
cross-checking.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError

SCHEMA_VERSION = "1"

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

#: vocabulary entry used for "field not present"
NONE_TOKEN = "none"

#: number of (hashed key, value) slot pairs reserved for optimizer extras that
#: are not first-class fields
N_EXTRA_SLOTS = 4
_EXTRA_HASH_BUCKETS = 63
_EXTRA_FIELDS = tuple((f"extra_key_{i}", f"extra_val_{i}") for i in range(N_EXTRA_SLOTS))

#: optimizer-extra keys that are first-class fields: key -> (owner optimizer, field name)
KNOWN_EXTRAS = {
    "adam_lr": ("muon", "muon_adam_lr"),
    "block_size": ("soap", "soap_block_size"),
    "precond_lr": ("kron", "kron_precond_lr"),
}

_RELTOL_MINLR_RATIO = 1e-9

#: the plain types that a field annotated ``int`` or ``float`` holds
_PLAIN = {"int": frozenset({int}), "float": frozenset({int, float})}


@functools.cache
def _number_fields(cls) -> tuple:
    """(name, kind, may be None) of each ``int`` or ``float`` field of the
    dataclass ``cls``, and for each set of plain types that some of those
    fields take, the set and a getter of those fields' values."""
    fields, groups = [], {}
    for f in dataclasses.fields(cls):
        kind, _, optional = f.type.partition(" | ")
        if kind in _PLAIN:
            fields.append((f.name, kind, optional == "None"))
            plain = _PLAIN[kind] | {type(None)} if optional == "None" else _PLAIN[kind]
            groups.setdefault(plain, []).append(f.name)
    # the first name twice, so that a group of one field also gets a tuple
    return fields, tuple((plain, operator.attrgetter(*names, names[0]))
                         for plain, names in groups.items())


def check_types(obj, error) -> None:
    """``error`` naming the first number field of the dataclass ``obj`` whose
    value has the wrong type: an ``int`` field takes an integer, a ``float``
    field an integer or a float, neither a bool, and a field that may be None
    also takes None. A SchemaError names the field as a config field."""
    fields, scans = _number_fields(type(obj))
    # the common case, every value of a plain type: one C-level scan per group
    for plain, get in scans:
        if not plain.issuperset(map(type, get(obj))):
            break
    else:
        return
    for name, kind, optional in fields:
        value = getattr(obj, name)
        want = numbers.Integral if kind == "int" else numbers.Real
        if not (isinstance(value, want) and not isinstance(value, bool)
                or optional and value is None):
            text = "an integer" if kind == "int" else "a number"
            label = f"field '{name}'" if issubclass(error, SchemaError) else name
            raise error(f"{label} must be {text}, got {value!r}")


@dataclass
class RunConfig:
    """One pretraining run's configuration.

    Units: ``model_size_n`` in millions of non-embedding parameters,
    ``data_size_d`` in billions of tokens, ``batch_size`` in sequences per
    step. ``epsilon`` holds the negative base-10 log of the optimizer's
    stability constant (1e-8 is stored as 8.0). ``warmup`` is either a step
    count or a ratio of ``total_steps`` depending on ``warmup_is_ratio``; both
    normalize to a ratio internally. A config is checked when it is built,
    ``dataclasses.replace`` included: SchemaError names the first bad field.
    """

    source: str
    model_size_n: float
    data_size_d: float
    total_steps: float
    optimizer: str
    peak_lr: float
    batch_size: float
    num_layers: float = 0.0
    num_heads: float = 0.0
    hidden_dim: float = 0.0
    lr_schedule: str | None = None
    min_lr: float | None = None
    min_lr_ratio: float | None = None
    weight_decay: float = 0.0
    warmup: float = 0.0
    warmup_is_ratio: bool = True
    max_grad_norm: float = 0.0
    beta1: float | None = None
    beta2: float | None = None
    epsilon: float | None = None
    optimizer_extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.source:
            raise SchemaError("missing required field 'source'")
        if not self.optimizer:
            raise SchemaError("missing required field 'optimizer'")
        check_types(self, SchemaError)
        for name in ("model_size_n", "data_size_d", "total_steps"):
            if not getattr(self, name) > 0:
                raise SchemaError(f"field '{name}' must be positive")
        if not self.batch_size >= 1:
            raise SchemaError("field 'batch_size' must be >= 1")
        if not self.peak_lr > 0:
            raise SchemaError("field 'peak_lr' must be positive")
        if self.min_lr is not None and self.min_lr > self.peak_lr:
            raise SchemaError(f"field 'min_lr' exceeds peak_lr ({self.min_lr} > {self.peak_lr})")
        if self.min_lr_ratio is not None and not 0 <= self.min_lr_ratio <= 1:
            raise SchemaError(f"field 'min_lr_ratio' must lie in [0, 1], got {self.min_lr_ratio}")
        if (self.beta1 is None) != (self.beta2 is None):
            raise SchemaError("fields 'beta1'/'beta2' must be given together")
        if self.warmup < 0:
            raise SchemaError("field 'warmup' must be non-negative")
        if self.warmup_is_ratio and self.warmup > 1:
            raise SchemaError("field 'warmup' ratio must lie in [0, 1]")
        if not self.warmup_is_ratio and self.warmup > self.total_steps:
            raise SchemaError("field 'warmup' exceeds total_steps")
        if self.min_lr is not None and self.min_lr_ratio is not None:
            expect = self.min_lr / self.peak_lr
            if abs(self.min_lr_ratio - expect) > _RELTOL_MINLR_RATIO * max(
                abs(expect), abs(self.min_lr_ratio), 1e-300
            ):
                raise SchemaError(
                    "field 'min_lr_ratio' inconsistent with min_lr / peak_lr "
                    f"({self.min_lr_ratio} vs {expect})"
                )
        for key in self.optimizer_extras:
            owner = KNOWN_EXTRAS.get(key, (None, None))[0]
            if owner is not None and owner != self.optimizer:
                raise SchemaError(
                    f"optimizer_extras key '{key}' is only valid for '{owner}', "
                    f"not '{self.optimizer}'"
                )

    @property
    def warmup_ratio(self) -> float:
        if self.warmup_is_ratio:
            return self.warmup
        return self.warmup / self.total_steps

    def resolved_min_lr(self) -> float:
        if self.min_lr is not None:
            return self.min_lr
        if self.min_lr_ratio is not None:
            return self.min_lr_ratio * self.peak_lr
        return 0.0

    def resolved_min_lr_ratio(self) -> float:
        if self.min_lr_ratio is not None:
            return self.min_lr_ratio
        if self.min_lr is not None:
            return self.min_lr / self.peak_lr
        return 0.0

    def resolved(self) -> "RunConfig":
        """Copy with min_lr/min_lr_ratio filled in and warmup normalized to a ratio."""
        return dataclasses.replace(
            self,
            min_lr=self.resolved_min_lr(),
            min_lr_ratio=self.resolved_min_lr_ratio(),
            warmup=self.warmup_ratio,
            warmup_is_ratio=True,
        )

    def beta_token(self) -> str:
        if self.beta1 is None:
            return NONE_TOKEN
        return f"{self.beta1:g},{self.beta2:g}"

    def epsilon_token(self) -> str:
        if self.epsilon is None:
            return NONE_TOKEN
        return f"{self.epsilon:g}"

    @staticmethod
    def epsilon_from_raw(eps: float) -> float:
        """Negative base-10 log of a raw stability constant."""
        if eps <= 0:
            raise SchemaError("raw epsilon must be positive")
        return -math.log10(eps)


@dataclass(frozen=True)
class FieldSpec:
    """Typing and encoding rule for one configuration field."""

    name: str
    kind: str
    scale_factor: float = 1.0
    vocabulary: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise SchemaError(f"unknown field kind '{self.kind}'")
        if self.kind == CATEGORICAL and not self.vocabulary:
            raise SchemaError(f"categorical field '{self.name}' needs a vocabulary")


def _cat(name, *vocab):
    return FieldSpec(name, CATEGORICAL, vocabulary=tuple(vocab))


def _num(name, scale):
    return FieldSpec(name, NUMERICAL, scale_factor=scale)


def _default_specs() -> tuple[FieldSpec, ...]:
    specs = [
        _cat("source", NONE_TOKEN, "marin", "steplaw", "synthetic"),
        _num("model_size_n", 0.01),
        _num("num_layers", 1.0),
        _num("num_heads", 1.0),
        _num("hidden_dim", 0.01),
        _num("data_size_d", 1.0),
        _num("total_steps", 0.001),
        _cat(
            "optimizer",
            NONE_TOKEN,
            "adamw", "kron", "lion", "mars", "muon", "nadam", "scion", "soap",
        ),
        _num("peak_lr", 1e4),
        _cat("lr_schedule", NONE_TOKEN, "constant", "cosine", "linear", "wsd"),
        _num("min_lr", 1e4),
        _num("min_lr_ratio", 200.0),
        _num("weight_decay", 100.0),
        _num("batch_size", 0.1),
        _num("warmup_ratio", 0.01),
        _num("max_grad_norm", 1.0),
        _cat(
            "beta_pair",
            NONE_TOKEN,
            "0.8,0.98", "0.9,0.95", "0.9,0.98", "0.9,0.999",
            "0.95,0.95", "0.95,0.98", "0.95,0.999",
        ),
        _cat(
            "epsilon",
            NONE_TOKEN,
            "6", "7", "8", "9", "10", "12", "15", "16", "20", "25", "30",
        ),
        _num("muon_adam_lr", 1e4),
        _num("soap_block_size", 0.02),
        _cat("kron_precond_lr", NONE_TOKEN, "0.1", "0.5", "1"),
    ]
    hash_vocab = (NONE_TOKEN,) + tuple(f"h{i}" for i in range(_EXTRA_HASH_BUCKETS))
    for key_field, val_field in _EXTRA_FIELDS:
        specs.append(FieldSpec(key_field, CATEGORICAL, vocabulary=hash_vocab))
        specs.append(_num(val_field, 1.0))
    return tuple(specs)


def _hash_extra_key(key: str) -> str:
    return f"h{zlib.crc32(key.encode()) % _EXTRA_HASH_BUCKETS}"


@dataclass(frozen=True)
class Schema:
    """Ordered field table with vocabularies; the single source of encoding truth."""

    specs: tuple[FieldSpec, ...]
    include_frac: bool = False
    version: str = SCHEMA_VERSION

    @classmethod
    def default(cls, include_frac: bool = False) -> "Schema":
        specs = _default_specs()
        if include_frac:
            specs = specs + (_num("frac", 1.0),)
        return cls(specs=specs, include_frac=include_frac)

    def spec(self, name: str) -> FieldSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise SchemaError(f"unknown field '{name}'")

    def numerical_fields(self) -> list[FieldSpec]:
        return [s for s in self.specs if s.kind == NUMERICAL]

    def categorical_fields(self) -> list[FieldSpec]:
        return [s for s in self.specs if s.kind == CATEGORICAL]

    # -- encoding ----------------------------------------------------------

    def canonicalize(self, config: RunConfig, frac: float | None = None) -> tuple:
        """Encode one configuration into its slots, one per field in schema
        order: ``features.encode_batch`` called on that config alone.

        Numerical slots are scaled floats; categorical slots are vocabulary
        indices. ``frac`` (ratio of total training steps completed) is
        required exactly when the schema was built with ``include_frac``, and
        its raw ratio sits in the last slot.
        """
        from .features import encode_batch  # features builds on this module

        x_num, x_cat = encode_batch(self, [config], [frac])
        num, cat = iter(x_num[0].tolist()), iter(x_cat[0].tolist())
        return tuple(next(num if s.kind == NUMERICAL else cat) for s in self.specs)

    def _field_values(self, config: RunConfig) -> tuple:
        """Each field's value before encoding, in ``_ROW_INDEX`` order: a raw
        number for a numerical field, the token for a categorical one. The one
        place a config's tokens and raw values are decided, for
        ``encode_batch`` and ``with_vocab_from``. The frac slot holds None,
        since a config's rows may differ in frac."""
        extras = self._extra_values(config) if config.optimizer_extras else _NO_EXTRAS
        return (
            config.source,
            config.model_size_n,
            config.num_layers,
            config.num_heads,
            config.hidden_dim,
            config.data_size_d,
            config.total_steps,
            config.optimizer,
            config.peak_lr,
            config.lr_schedule or NONE_TOKEN,
            config.resolved_min_lr(),
            config.resolved_min_lr_ratio(),
            config.weight_decay,
            config.batch_size,
            config.warmup_ratio,
            config.max_grad_norm,
            config.beta_token(),
            config.epsilon_token(),
            *extras,
            None,
        )

    def _extra_values(self, config: RunConfig) -> tuple:
        """The values of ``muon_adam_lr``, ``soap_block_size`` and
        ``kron_precond_lr``, then one (hashed key, value) slot pair per unknown
        extra in key order, padded with empty pairs."""
        known: dict[str, object] = {}
        slots: list = []
        for key in sorted(config.optimizer_extras):
            val = config.optimizer_extras[key]
            if key in KNOWN_EXTRAS:
                fname = KNOWN_EXTRAS[key][1]
                if self.spec(fname).kind == CATEGORICAL:
                    known[fname] = f"{val:g}" if not isinstance(val, str) else val
                else:
                    known[fname] = float(val)
            else:
                slots += (_hash_extra_key(key), float(val))
        if len(slots) > 2 * N_EXTRA_SLOTS:
            raise SchemaError(
                f"too many unknown optimizer extras ({len(slots) // 2} > {N_EXTRA_SLOTS})"
            )
        return (known.get("muon_adam_lr", 0.0), known.get("soap_block_size", 0.0),
                known.get("kron_precond_lr", NONE_TOKEN), *slots,
                *_NO_EXTRAS[3 + len(slots):])

    @functools.cached_property
    def _columns(self) -> tuple:
        """How ``encode_batch`` reads ``_field_values`` rows: a getter of the
        numerical values, their scale factors, the frac column's place among
        them (None without one), and per categorical field a getter of its
        token, its token -> index map and its name."""
        num = [s for s in self.specs if s.kind == NUMERICAL]
        cats = []
        for s in self.specs:
            if s.kind == CATEGORICAL:
                index: dict[str, int] = {}
                for i, token in enumerate(s.vocabulary):
                    index.setdefault(token, i)
                cats.append((operator.itemgetter(_ROW_INDEX[s.name]), index, s.name))
        names = [s.name for s in num]
        return (operator.itemgetter(*(_ROW_INDEX[name] for name in names)),
                np.array([s.scale_factor for s in num], dtype=np.float64),
                names.index("frac") if self.include_frac else None,
                tuple(cats))

    def check_frac(self, frac: float | None) -> None:
        """Raise SchemaError unless ``frac`` is what this schema's frac slot takes."""
        if self.include_frac:
            if frac is None:
                raise SchemaError("schema expects a 'frac' value")
            if not 0.0 < frac <= 1.0:
                raise SchemaError("'frac' must lie in (0, 1]")
        elif frac is not None:
            raise SchemaError("schema does not carry a 'frac' field")

    # -- vocabulary management ----------------------------------------------

    def with_vocab_from(self, configs) -> "Schema":
        """New schema whose categorical vocabularies also cover every value
        observed in ``configs`` (new values appended in sorted order)."""
        rows = [self._field_values(c) for c in configs]
        specs = []
        for s in self.specs:
            if s.kind == CATEGORICAL:
                pos = _ROW_INDEX[s.name]
                new = sorted({row[pos] for row in rows}.difference(s.vocabulary))
                if new:
                    s = dataclasses.replace(s, vocabulary=s.vocabulary + tuple(new))
            specs.append(s)
        return Schema(specs=tuple(specs), include_frac=self.include_frac, version=self.version)

    # -- serialization -------------------------------------------------------

    def dump(self) -> dict:
        return {
            "version": self.version,
            "include_frac": self.include_frac,
            "fields": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "scale_factor": s.scale_factor,
                    "vocabulary": list(s.vocabulary),
                }
                for s in self.specs
            ],
        }

    @classmethod
    def from_dump(cls, data: dict) -> "Schema":
        specs = tuple(
            FieldSpec(
                name=f["name"],
                kind=f["kind"],
                scale_factor=f["scale_factor"],
                vocabulary=tuple(f["vocabulary"]),
            )
            for f in data["fields"]
        )
        return cls(specs=specs, include_frac=data["include_frac"], version=data["version"])

    def schema_hash(self) -> str:
        blob = json.dumps(self.dump(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_saved(self) -> dict:
        """The schema entries of a checkpoint manifest or a GBT dump header."""
        return {"schema": self.dump(), "schema_hash": self.schema_hash()}

    @classmethod
    def from_saved(cls, saved: dict) -> "Schema":
        """The schema of a checkpoint manifest or GBT dump header. It loads only
        if it matches its saved hash and this build's field table (names, kinds,
        scale factors); vocabularies may extend the defaults."""
        schema = cls.from_dump(saved["schema"])
        if schema.schema_hash() != saved["schema_hash"]:
            raise SchemaError("saved schema hash mismatch")
        current = cls.default(include_frac=schema.include_frac)
        got = [(s.name, s.kind, s.scale_factor) for s in schema.specs]
        want = [(s.name, s.kind, s.scale_factor) for s in current.specs]
        if got != want:
            raise SchemaError(
                "saved field table does not match this build's schema "
                f"(version {schema.version} vs {current.version})"
            )
        for s, cur in zip(schema.specs, current.specs):
            if s.kind == CATEGORICAL and s.vocabulary[: len(cur.vocabulary)] != cur.vocabulary:
                raise SchemaError(f"saved vocabulary for '{s.name}' conflicts with this build")
        return schema


#: each field's place in a ``Schema._field_values`` row
_ROW_INDEX = {s.name: i for i, s in enumerate(Schema.default(include_frac=True).specs)}

#: the extra-field values of a config without optimizer extras
_NO_EXTRAS = (0.0, 0.0, NONE_TOKEN) + (NONE_TOKEN, 0.0) * N_EXTRA_SLOTS


def read_saved(text, keys, what: str) -> dict:
    """The JSON object in ``text`` (a checkpoint manifest or GBT dump header),
    holding every entry of ``keys``; SchemaError naming the fault otherwise."""
    try:
        saved = json.loads(text)
    except ValueError:
        raise SchemaError(f"{what} is not valid JSON") from None
    if not isinstance(saved, dict):
        raise SchemaError(f"{what} is a JSON {type(saved).__name__}, not an object")
    for key in keys:
        if key not in saved:
            raise SchemaError(f"{what} lacks '{key}'")
    return saved
