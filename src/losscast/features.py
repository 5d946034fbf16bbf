"""Config batching: schema-ordered arrays for model consumption."""

from __future__ import annotations

import numpy as np

from .schema import CATEGORICAL, NUMERICAL, RunConfig, Schema


def encode_batch(schema: Schema, configs: list[RunConfig],
                 fracs: list[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode configurations into (numerical, categorical) arrays.

    This is the one path from a configuration to model inputs. ``fracs`` gives
    each row's training-progress ratio on a frac schema. ``None`` is a
    final-loss query: every row gets frac 1.0 on a frac schema, and none on
    any other.

    Returns X_num (n, n_numerical) float64 and X_cat (n, n_categorical) int64,
    columns in schema order within each kind.
    """
    if fracs is None:
        fracs = [1.0 if schema.include_frac else None] * len(configs)
    # a curve's rows repeat one config object with different fracs: encode
    # each object once, then write each row's frac into its slot
    distinct, row_of, index_of = [], [], {}
    for c, f in zip(configs, fracs, strict=True):
        i = index_of.get(id(c))
        if i is None:
            i = index_of[id(c)] = len(distinct)
            distinct.append(schema.canonicalize(c, frac=f))
        else:
            schema.check_frac(f)
        row_of.append(i)
    # categorical indices are small integers, exact in float64
    slots = np.array(distinct, dtype=np.float64).reshape(
        len(distinct), len(schema.specs))[row_of]
    if schema.include_frac:
        # canonicalize's own arithmetic, into the frac schema's last slot
        scale = schema.specs[-1].scale_factor
        slots[:, -1] = [float(f) * scale for f in fracs]
    num_idx = [i for i, s in enumerate(schema.specs) if s.kind == NUMERICAL]
    cat_idx = [i for i, s in enumerate(schema.specs) if s.kind == CATEGORICAL]
    # np.take returns C-ordered copies, where a column fancy-index would not;
    # BLAS may round a matmul differently on another memory layout
    return (np.take(slots, num_idx, axis=1),
            np.take(slots, cat_idx, axis=1).astype(np.int64))


def one_hot_matrix(schema: Schema, x_num: np.ndarray, x_cat: np.ndarray) -> np.ndarray:
    """Design matrix with numerical columns followed by one-hot categorical
    indicator columns, in schema order. Used by tree models."""
    cats = schema.categorical_fields()
    cols = [x_num]
    for j, spec in enumerate(cats):
        v = len(spec.vocabulary)
        block = np.zeros((x_cat.shape[0], v), dtype=np.float64)
        block[np.arange(x_cat.shape[0]), x_cat[:, j]] = 1.0
        cols.append(block)
    return np.concatenate(cols, axis=1)


def design_column_names(schema: Schema) -> list[str]:
    names = [s.name for s in schema.numerical_fields()]
    for spec in schema.categorical_fields():
        names.extend(f"{spec.name}={v}" for v in spec.vocabulary)
    return names
