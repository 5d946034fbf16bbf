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
as a machine-readable table (``losscast schema dump``) for cross-checking.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field

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

#: optimizer-extra keys that are first-class fields: key -> (owner optimizer, field name)
KNOWN_EXTRAS = {
    "adam_lr": ("muon", "muon_adam_lr"),
    "block_size": ("soap", "soap_block_size"),
    "precond_lr": ("kron", "kron_precond_lr"),
}

_RELTOL_MINLR_RATIO = 1e-9


@dataclass
class RunConfig:
    """One pretraining run's configuration.

    Units: ``model_size_n`` in millions of non-embedding parameters,
    ``data_size_d`` in billions of tokens, ``batch_size`` in sequences per
    step. ``epsilon`` holds the negative base-10 log of the optimizer's
    stability constant (1e-8 is stored as 8.0). ``warmup`` is either a step
    count or a ratio of ``total_steps`` depending on ``warmup_is_ratio``; both
    normalize to a ratio internally.
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

    def validate(self) -> None:
        if not self.source:
            raise SchemaError("missing required field 'source'")
        if not self.optimizer:
            raise SchemaError("missing required field 'optimizer'")
        for name in ("model_size_n", "data_size_d", "total_steps"):
            if not getattr(self, name) > 0:
                raise SchemaError(f"field '{name}' must be positive")
        if not self.batch_size >= 1:
            raise SchemaError("field 'batch_size' must be >= 1")
        if not self.peak_lr > 0:
            raise SchemaError("field 'peak_lr' must be positive")
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


@dataclass(frozen=True)
class FeatureVector:
    """Encoded configuration: one slot per schema field, in schema order.

    Numerical slots are scaled floats; categorical slots are vocabulary
    indices. When the schema carries the training-progress field, its (raw)
    ratio sits in the last slot.
    """

    names: tuple[str, ...]
    slots: tuple

    @property
    def frac(self) -> float | None:
        if self.names and self.names[-1] == "frac":
            return float(self.slots[-1])
        return None

    def slot(self, name: str):
        return self.slots[self.names.index(name)]

    def to_json(self) -> str:
        return json.dumps(
            {"names": list(self.names), "slots": list(self.slots)},
            sort_keys=True,
            separators=(",", ":"),
        )


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
    for i in range(N_EXTRA_SLOTS):
        specs.append(FieldSpec(f"extra_key_{i}", CATEGORICAL, vocabulary=hash_vocab))
        specs.append(_num(f"extra_val_{i}", 1.0))
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

    def canonicalize(self, config: RunConfig, frac: float | None = None) -> FeatureVector:
        """Encode a configuration into the fixed slot layout.

        ``frac`` (ratio of total training steps completed) is required exactly
        when the schema was built with ``include_frac``.
        """
        config.validate()
        if self.include_frac:
            if frac is None:
                raise SchemaError("schema expects a 'frac' value")
            if not 0.0 < frac <= 1.0:
                raise SchemaError("'frac' must lie in (0, 1]")
        elif frac is not None:
            raise SchemaError("schema does not carry a 'frac' field")

        known, extra_pairs = self._split_extras(config)
        values = {
            "source": config.source,
            "model_size_n": config.model_size_n,
            "num_layers": config.num_layers,
            "num_heads": config.num_heads,
            "hidden_dim": config.hidden_dim,
            "data_size_d": config.data_size_d,
            "total_steps": config.total_steps,
            "optimizer": config.optimizer,
            "peak_lr": config.peak_lr,
            "lr_schedule": config.lr_schedule or NONE_TOKEN,
            "min_lr": config.resolved_min_lr(),
            "min_lr_ratio": config.resolved_min_lr_ratio(),
            "weight_decay": config.weight_decay,
            "batch_size": config.batch_size,
            "warmup_ratio": config.warmup_ratio,
            "max_grad_norm": config.max_grad_norm,
            "beta_pair": config.beta_token(),
            "epsilon": config.epsilon_token(),
            "muon_adam_lr": known.get("muon_adam_lr", 0.0),
            "soap_block_size": known.get("soap_block_size", 0.0),
            "kron_precond_lr": known.get("kron_precond_lr", NONE_TOKEN),
            "frac": frac,
        }
        for i in range(N_EXTRA_SLOTS):
            if i < len(extra_pairs):
                key, val = extra_pairs[i]
                values[f"extra_key_{i}"] = _hash_extra_key(key)
                values[f"extra_val_{i}"] = float(val)
            else:
                values[f"extra_key_{i}"] = NONE_TOKEN
                values[f"extra_val_{i}"] = 0.0

        names, slots = [], []
        for s in self.specs:
            v = values[s.name]
            if s.kind == NUMERICAL:
                slots.append(float(v) * s.scale_factor)
            else:
                try:
                    slots.append(s.vocabulary.index(v))
                except ValueError:
                    raise SchemaError(
                        f"unknown value '{v}' for categorical field '{s.name}'"
                    ) from None
            names.append(s.name)
        return FeatureVector(names=tuple(names), slots=tuple(slots))

    def _split_extras(self, config: RunConfig):
        known: dict[str, object] = {}
        unknown: list[tuple[str, float]] = []
        for key in sorted(config.optimizer_extras):
            val = config.optimizer_extras[key]
            if key in KNOWN_EXTRAS:
                fname = KNOWN_EXTRAS[key][1]
                if self.spec(fname).kind == CATEGORICAL:
                    known[fname] = f"{val:g}" if not isinstance(val, str) else val
                else:
                    known[fname] = float(val)
            else:
                unknown.append((key, float(val)))
        if len(unknown) > N_EXTRA_SLOTS:
            raise SchemaError(
                f"too many unknown optimizer extras ({len(unknown)} > {N_EXTRA_SLOTS})"
            )
        return known, unknown

    # -- decoding ----------------------------------------------------------

    def decanonicalize(self, fv: FeatureVector) -> RunConfig:
        """Invert canonicalize. Unknown optimizer extras come back under their
        hash-bucket names (the original key text is not recoverable)."""
        if fv.names != tuple(s.name for s in self.specs):
            raise SchemaError("feature vector does not match this schema")
        raw: dict[str, object] = {}
        for s, slot in zip(self.specs, fv.slots):
            if s.kind == NUMERICAL:
                raw[s.name] = float(slot) / s.scale_factor
            else:
                idx = int(slot)
                if not 0 <= idx < len(s.vocabulary):
                    raise SchemaError(
                        f"categorical index {idx} out of vocabulary for '{s.name}'"
                    )
                raw[s.name] = s.vocabulary[idx]

        beta1 = beta2 = None
        if raw["beta_pair"] != NONE_TOKEN:
            b1, b2 = str(raw["beta_pair"]).split(",")
            beta1, beta2 = float(b1), float(b2)
        extras: dict[str, object] = {}
        if raw["muon_adam_lr"] != 0.0:
            extras["adam_lr"] = raw["muon_adam_lr"]
        if raw["soap_block_size"] != 0.0:
            extras["block_size"] = raw["soap_block_size"]
        if raw["kron_precond_lr"] != NONE_TOKEN:
            extras["precond_lr"] = float(str(raw["kron_precond_lr"]))
        for i in range(N_EXTRA_SLOTS):
            key = raw[f"extra_key_{i}"]
            if key != NONE_TOKEN:
                extras[str(key)] = raw[f"extra_val_{i}"]

        return RunConfig(
            source=str(raw["source"]),
            model_size_n=raw["model_size_n"],
            data_size_d=raw["data_size_d"],
            total_steps=raw["total_steps"],
            optimizer=str(raw["optimizer"]),
            peak_lr=raw["peak_lr"],
            batch_size=raw["batch_size"],
            num_layers=raw["num_layers"],
            num_heads=raw["num_heads"],
            hidden_dim=raw["hidden_dim"],
            lr_schedule=None if raw["lr_schedule"] == NONE_TOKEN else str(raw["lr_schedule"]),
            min_lr=raw["min_lr"],
            min_lr_ratio=raw["min_lr_ratio"],
            weight_decay=raw["weight_decay"],
            warmup=raw["warmup_ratio"],
            warmup_is_ratio=True,
            max_grad_norm=raw["max_grad_norm"],
            beta1=beta1,
            beta2=beta2,
            epsilon=None if raw["epsilon"] == NONE_TOKEN else float(str(raw["epsilon"])),
            optimizer_extras=extras,
        )

    # -- vocabulary management ----------------------------------------------

    def with_vocab_from(self, configs) -> "Schema":
        """New schema whose categorical vocabularies also cover every value
        observed in ``configs`` (new values appended in sorted order)."""
        seen: dict[str, set[str]] = {}

        def note(fname, value):
            seen.setdefault(fname, set()).add(value)

        for c in configs:
            note("source", c.source)
            note("optimizer", c.optimizer)
            note("lr_schedule", c.lr_schedule or NONE_TOKEN)
            note("beta_pair", c.beta_token())
            note("epsilon", c.epsilon_token())
            known, _ = self._split_extras(c)
            if "kron_precond_lr" in known:
                note("kron_precond_lr", str(known["kron_precond_lr"]))

        specs = []
        for s in self.specs:
            if s.kind == CATEGORICAL and s.name in seen:
                new = sorted(v for v in seen[s.name] if v not in s.vocabulary)
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


DEFAULT_SCHEMA = Schema.default()


def canonicalize(config: RunConfig, frac: float | None = None,
                 schema: Schema | None = None) -> FeatureVector:
    return (schema or DEFAULT_SCHEMA).canonicalize(config, frac=frac)


def decanonicalize(fv: FeatureVector, schema: Schema | None = None) -> RunConfig:
    return (schema or DEFAULT_SCHEMA).decanonicalize(fv)
