"""JSON instance files and seeded instance generators.

Schema (one object per file, schema tag required):

    {"schema": "gap-instance-v1", "problem": "ov",
     "u": [[1,0],[0,1]], "v": [[0,0],[1,1]], "seed": 7}
    {"schema": "gap-instance-v1", "problem": "3sum",
     "bound": 8, "values": [-5, 0, 3], "seed": 7}
    {"schema": "gap-instance-v1", "problem": "nwt",
     "n": 4, "weight_bound": 2, "edges": [[1, 2, -1], [2, 4, 2]], "seed": 7}

Bit vectors are 0/1 lists, low bit first.  `seed` is optional provenance
and never affects semantics.  Serialization is canonical (sorted keys, no
timestamps), so identical instances give byte-identical files.

Generators draw from `random.Random(seed)` with explicit randrange and
getrandbits calls only, keeping files reproducible across runs, and they
enforce the documented size budgets.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .builders import (
    Instance,
    InstanceError,
    NwtInstance,
    OVInstance,
    PROBLEM_3SUM,
    PROBLEM_NWT,
    PROBLEM_OV,
    ThreeSumInstance,
)
from .ir import BitString, CircuitError

SCHEMA = "gap-instance-v1"

# Budgets keep the acceptance grids exact-simulable in seconds; the
# generators and sweeps refuse sizes beyond them.
BUDGETS = {
    PROBLEM_OV: {"n": 8, "d": 4},
    PROBLEM_3SUM: {"n": 6, "bound": 64},
    PROBLEM_NWT: {"n": 6, "bound": 3},
}


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed derived from the given parts."""
    # Imported here: hashlib maps OpenSSL, about 3.5 MB of resident memory
    # that a process which never derives a seed should not pay for.
    import hashlib

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _check_budget(problem: str, **kwargs) -> None:
    budget = BUDGETS[problem]
    for key, value in kwargs.items():
        if value < 1:
            raise InstanceError(f"{problem}: {key} must be at least 1, got {value}")
        if value > budget[key]:
            raise InstanceError(f"{problem}: {key}={value} exceeds the budget of {budget[key]}")


def generate_ov(n: int, d: int, seed: int) -> OVInstance:
    _check_budget(PROBLEM_OV, n=n, d=d)
    rng = random.Random(seed)

    def draw() -> tuple[BitString, ...]:
        return tuple(BitString(tuple(rng.getrandbits(1) for _ in range(d))) for _ in range(n))

    return OVInstance(u=draw(), v=draw())


def generate_threesum(n: int, bound: int, seed: int) -> ThreeSumInstance:
    _check_budget(PROBLEM_3SUM, n=n, bound=bound)
    pool = list(range(-bound, bound + 1))
    if n > len(pool):
        raise InstanceError(f"cannot pick {n} distinct values from [-{bound}, {bound}]")
    rng = random.Random(seed)
    # Partial Fisher-Yates: the first n slots become the sample.
    for t in range(n):
        swap = rng.randrange(t, len(pool))
        pool[t], pool[swap] = pool[swap], pool[t]
    return ThreeSumInstance(values=tuple(pool[:n]), bound=bound)


def generate_nwt(n: int, bound: int, seed: int) -> NwtInstance:
    _check_budget(PROBLEM_NWT, n=n, bound=bound)
    rng = random.Random(seed)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.getrandbits(1):
                edges.append((i, j, rng.randrange(-bound, bound + 1)))
    return NwtInstance(n=n, weight_bound=bound, edges=tuple(edges))


# Each problem's generator, the argument that sizes it, and the `gen` flag that sets it.
_GENERATORS = {
    PROBLEM_OV: (generate_ov, "d", "-d"),
    PROBLEM_3SUM: (generate_threesum, "bound", "--bound"),
    PROBLEM_NWT: (generate_nwt, "bound", "--bound"),
}


def generate(problem: str, seed: int, *, n: int, d: int | None = None,
             bound: int | None = None) -> Instance:
    if problem not in _GENERATORS:
        raise InstanceError(f"unknown problem {problem!r}")
    generator, key, flag = _GENERATORS[problem]
    size = {"d": d, "bound": bound}[key]
    if size is None:
        raise InstanceError(f"{problem} needs {key} ({flag})")
    return generator(n, size, seed)


def instance_to_dict(instance: Instance, seed: int | None = None) -> dict:
    if isinstance(instance, OVInstance):
        body = {"u": [list(bs.bits) for bs in instance.u],
                "v": [list(bs.bits) for bs in instance.v]}
    elif isinstance(instance, ThreeSumInstance):
        body = {"bound": instance.bound, "values": list(instance.values)}
    elif isinstance(instance, NwtInstance):
        body = {"n": instance.n, "weight_bound": instance.weight_bound,
                "edges": [list(e) for e in instance.edges]}
    else:
        raise InstanceError(f"unknown instance type {type(instance).__name__}")
    body["problem"] = instance.PROBLEM
    body["schema"] = SCHEMA
    if seed is not None:
        body["seed"] = seed
    return body


def _require(payload: dict, key: str, kind) -> object:
    if key not in payload:
        raise InstanceError(f"instance is missing the {key!r} field")
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InstanceError(f"field {key!r} has the wrong type")
    return value


def _bit_vectors(payload: dict, key: str) -> tuple[BitString, ...]:
    rows = _require(payload, key, list)
    vectors = []
    for row in rows:
        # type(b) is int refuses JSON true/false, which would not be written back as bits.
        if not isinstance(row, list) or any(type(b) is not int or b not in (0, 1) for b in row):
            raise InstanceError(f"field {key!r} must hold lists of 0/1 bits")
        vectors.append(BitString(tuple(row)))
    return tuple(vectors)


def instance_from_dict(payload: dict) -> Instance:
    if not isinstance(payload, dict):
        raise InstanceError("instance file must hold one JSON object")
    if payload.get("schema") != SCHEMA:
        raise InstanceError(f"unsupported schema {payload.get('schema')!r}, expected {SCHEMA!r}")
    problem = payload.get("problem")
    try:
        if problem == PROBLEM_OV:
            return OVInstance(u=_bit_vectors(payload, "u"), v=_bit_vectors(payload, "v"))
        if problem == PROBLEM_3SUM:
            values = _require(payload, "values", list)
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
                raise InstanceError("field 'values' must hold integers")
            return ThreeSumInstance(values=tuple(values), bound=_require(payload, "bound", int))
        if problem == PROBLEM_NWT:
            edges = _require(payload, "edges", list)
            parsed = []
            for edge in edges:
                if not (isinstance(edge, list) and len(edge) == 3
                        and all(isinstance(x, int) and not isinstance(x, bool) for x in edge)):
                    raise InstanceError("field 'edges' must hold [i, j, w] integer triples")
                parsed.append(tuple(edge))
            return NwtInstance(n=_require(payload, "n", int),
                               weight_bound=_require(payload, "weight_bound", int),
                               edges=tuple(parsed))
    except CircuitError as exc:  # malformed bits surface as schema errors
        raise InstanceError(str(exc)) from exc
    raise InstanceError(f"unknown problem {problem!r}")


def instance_to_text(instance: Instance, seed: int | None = None) -> str:
    return json.dumps(instance_to_dict(instance, seed), sort_keys=True) + "\n"


def instance_from_text(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(payload)


def write_instance(path: str | Path, instance: Instance, seed: int | None = None) -> None:
    Path(path).write_text(instance_to_text(instance, seed))


def read_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    return instance_from_text(text)
