"""Input generator for the benchmark: seeded exact changes of basis, direct
sums and sign-automorphism Yau twists of the packaged fixture bundles.

Standard library only; it never imports homalg.  It reads the fixture JSON
files as data, transforms them in ``fractions.Fraction`` arithmetic, and
writes canonical bundle text (the format documented in the repository
README), so that ``homalg fmt`` of a generated file reproduces it byte for
byte.

A structure here is a plain dict::

    {"class": str | None, "dim": n, "basis": [...], "twist": n x n,
     "products": {role: {(i, j): {k: Fraction}}},
     "reps": [{"module_dim": m, "module_twist": m x m,
               "actions": {role: [m x m per base index]}}],
     "operators": [{"kind": ..., "weight": F | None, "rep_index": int | None,
                    "matrix": rows x cols}],
     "forms": [n x n], "meta": {str: str}}

Matrices are lists of rows of Fractions.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

F = Fraction
ZERO = F(0)
ONE = F(1)

FIXTURE_DIR = Path("src") / "homalg" / "fixtures"


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[ZERO] * cols for _ in range(rows)]


def matmul(a, b):
    cols = len(b[0])
    inner = len(b)
    out = []
    for row in a:
        out_row = []
        for c in range(cols):
            acc = ZERO
            for t in range(inner):
                if row[t] and b[t][c]:
                    acc += row[t] * b[t][c]
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    work = [list(row) + identity(n)[r] for r, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


def block_diag(a, b):
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = zeros(ra + rb, ca + cb)
    for r in range(ra):
        out[r][:ca] = a[r]
    for r in range(rb):
        out[ra + r][ca:] = b[r]
    return out


def apply(m, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """Matrix times a sparse column vector, as a sparse vector."""
    out: dict[int, Fraction] = {}
    for j, c in vec.items():
        for r in range(len(m)):
            if m[r][j]:
                out[r] = out.get(r, ZERO) + m[r][j] * c
    return {k: v for k, v in out.items() if v}


def random_basis(rng: random.Random, n: int):
    """A dense invertible rational matrix g = D L U: L unit lower and U unit
    upper triangular with entries in {+-1, +-1/2, +-2}, D a diagonal of
    entries in {1, 2, 1/2, -1}.  Every entry of g is nonzero for n >= 2
    with overwhelming probability, and det g is a power of two up to sign."""
    choices = (F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2))
    lower = identity(n)
    upper = identity(n)
    for r in range(n):
        for c in range(n):
            if r > c:
                lower[r][c] = rng.choice(choices)
            elif r < c:
                upper[r][c] = rng.choice(choices)
    diag = identity(n)
    for r in range(n):
        diag[r][r] = rng.choice((F(1), F(2), F(1, 2), F(-1)))
    return matmul(diag, matmul(lower, upper))


def random_signed_permutation(rng: random.Random, n: int):
    """A seeded signed permutation matrix: a change of basis that keeps every
    product exactly as sparse as it was."""
    order = list(range(n))
    rng.shuffle(order)
    out = zeros(n, n)
    for c, r in enumerate(order):
        out[r][c] = rng.choice((F(1), F(-1)))
    return out


# ---------------------------------------------------------------------------
# reading fixtures
# ---------------------------------------------------------------------------

def _flat(values, rows, cols):
    vals = [F(v) for v in values]
    return [vals[r * cols:(r + 1) * cols] for r in range(rows)]


def parse_bundle(text: str) -> dict:
    raw = json.loads(text)
    n = raw["dim"]
    products = {}
    for role, entries in raw["products"].items():
        table: dict = {}
        for i, j, k, v in entries:
            table.setdefault((i, j), {})[k] = F(v)
        products[role] = table
    reps = []
    for rep in raw.get("reps", []):
        m = rep["module_dim"]
        actions = {}
        for role, entries in rep["actions"].items():
            slices = [zeros(m, m) for _ in range(n)]
            for i, a, b, v in entries:
                slices[i][a][b] = F(v)
            actions[role] = slices
        reps.append({"module_dim": m,
                     "module_twist": _flat(rep["module_twist"], m, m),
                     "actions": actions})
    operators = []
    for op in raw.get("operators", []):
        idx = op.get("rep_index")
        cols = n if idx is None else reps[idx]["module_dim"]
        operators.append({
            "kind": op["kind"],
            "weight": F(op["weight"]) if "weight" in op else None,
            "rep_index": idx,
            "matrix": _flat(op["matrix"], n, cols),
        })
    return {
        "class": raw.get("class"),
        "dim": n,
        "basis": list(raw["basis"]),
        "twist": _flat(raw["twist"], n, n),
        "products": products,
        "reps": reps,
        "operators": operators,
        "forms": [_flat(f, n, n) for f in raw.get("forms", [])],
        "meta": dict(raw.get("meta", {})),
    }


def load(name: str, root: Path = Path(".")) -> dict:
    return parse_bundle((root / FIXTURE_DIR / f"{name}.json").read_text("utf-8"))


# ---------------------------------------------------------------------------
# writing canonical bundles
# ---------------------------------------------------------------------------

def _rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _flatten(mat) -> list[str]:
    return [_rat(v) for row in mat for v in row]


def dumps(s: dict) -> str:
    payload: dict = {"schema_version": 1}
    if s["class"] is not None:
        payload["class"] = s["class"]
    payload["dim"] = s["dim"]
    payload["basis"] = list(s["basis"])
    payload["twist"] = _flatten(s["twist"])
    payload["products"] = {
        role: [[i, j, k, _rat(v)]
               for (i, j) in sorted(table)
               for k, v in sorted(table[(i, j)].items()) if v]
        for role, table in sorted(s["products"].items())
    }
    if s["reps"]:
        payload["reps"] = [
            {"module_dim": rep["module_dim"],
             "module_twist": _flatten(rep["module_twist"]),
             "actions": {
                 role: [[i, a, b, _rat(v)]
                        for i, sl in enumerate(slices)
                        for a, row in enumerate(sl)
                        for b, v in enumerate(row) if v]
                 for role, slices in sorted(rep["actions"].items())}}
            for rep in s["reps"]
        ]
    if s["operators"]:
        ops = []
        for op in s["operators"]:
            entry: dict = {"kind": op["kind"]}
            if op["rep_index"] is None:
                entry["weight"] = _rat(op["weight"])
            else:
                entry["rep_index"] = op["rep_index"]
            entry["matrix"] = _flatten(op["matrix"])
            ops.append(entry)
        payload["operators"] = ops
    if s["forms"]:
        payload["forms"] = [_flatten(f) for f in s["forms"]]
    if s["meta"]:
        payload["meta"] = {k: s["meta"][k] for k in sorted(s["meta"])}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def change_basis(s: dict, g) -> dict:
    """The isomorphic copy of ``s`` in the basis given by the columns of
    ``g``: x o' y = g^-1 (gx o gy), alpha' = g^-1 alpha g, R' = g^-1 R g,
    B' = g^T B g.  A representation module of the structure's dimension
    changes basis by ``g`` too, which keeps a regular or adjoint
    representation regular or adjoint; other modules keep their basis."""
    n = s["dim"]
    gi = inverse(g)
    gcols = [{r: g[r][c] for r in range(n) if g[r][c]} for c in range(n)]
    products = {}
    for role, table in s["products"].items():
        new: dict = {}
        for i in range(n):
            for j in range(n):
                acc: dict[int, Fraction] = {}
                for a, ca in gcols[i].items():
                    for b, cb in gcols[j].items():
                        cell = table.get((a, b))
                        if not cell:
                            continue
                        c = ca * cb
                        for k, w in cell.items():
                            acc[k] = acc.get(k, ZERO) + c * w
                out = apply(gi, {k: v for k, v in acc.items() if v})
                if out:
                    new[(i, j)] = out
        products[role] = new
    reps = []
    module_bases = []
    for rep in s["reps"]:
        m = rep["module_dim"]
        h = g if m == n else identity(m)
        hi = inverse(h)
        module_bases.append(h)
        actions = {}
        for role, slices in rep["actions"].items():
            new_slices = []
            for i in range(n):
                comb = zeros(m, m)
                for k in range(n):
                    if g[k][i]:
                        for a in range(m):
                            for b in range(m):
                                if slices[k][a][b]:
                                    comb[a][b] += g[k][i] * slices[k][a][b]
                new_slices.append(matmul(hi, matmul(comb, h)))
            actions[role] = new_slices
        reps.append({"module_dim": m,
                     "module_twist": matmul(hi, matmul(rep["module_twist"], h)),
                     "actions": actions})
    operators = []
    for op in s["operators"]:
        right = g if op["rep_index"] is None else module_bases[op["rep_index"]]
        operators.append(dict(op, matrix=matmul(gi, matmul(op["matrix"], right))))
    return dict(
        s,
        basis=[f"b{i}" for i in range(n)],
        twist=matmul(gi, matmul(s["twist"], g)),
        products=products,
        reps=reps,
        operators=operators,
        forms=[matmul(transpose(g), matmul(f, g)) for f in s["forms"]],
        meta={},
    )


def direct_sum(*parts: dict, cls: str | None = None) -> dict:
    """Block-diagonal direct sum.  Products absent from a summand are zero
    there; representations, operators and forms are summed position by
    position when every summand carries the same number of them."""
    def pair(a: dict, b: dict) -> dict:
        na, nb = a["dim"], b["dim"]
        products = {}
        for role in sorted(set(a["products"]) | set(b["products"])):
            table = {key: dict(cell)
                     for key, cell in a["products"].get(role, {}).items()}
            for (i, j), cell in b["products"].get(role, {}).items():
                table[(i + na, j + na)] = {k + na: v for k, v in cell.items()}
            products[role] = table
        reps = []
        if len(a["reps"]) == len(b["reps"]):
            for ra, rb in zip(a["reps"], b["reps"]):
                ma, mb = ra["module_dim"], rb["module_dim"]
                actions = {}
                for role in sorted(set(ra["actions"]) | set(rb["actions"])):
                    sa = ra["actions"].get(role, [zeros(ma, ma)] * na)
                    sb = rb["actions"].get(role, [zeros(mb, mb)] * nb)
                    actions[role] = ([block_diag(x, zeros(mb, mb)) for x in sa]
                                     + [block_diag(zeros(ma, ma), y) for y in sb])
                reps.append({"module_dim": ma + mb,
                             "module_twist": block_diag(ra["module_twist"],
                                                        rb["module_twist"]),
                             "actions": actions})
        operators = []
        kinds_match = len(a["operators"]) == len(b["operators"]) and all(
            (oa["kind"], oa["weight"]) == (ob["kind"], ob["weight"])
            for oa, ob in zip(a["operators"], b["operators"]))
        needs_reps = any(op["rep_index"] is not None for op in a["operators"])
        if kinds_match and (reps or not needs_reps):
            operators = [dict(oa, matrix=block_diag(oa["matrix"], ob["matrix"]))
                         for oa, ob in zip(a["operators"], b["operators"])]
        forms = []
        if len(a["forms"]) == len(b["forms"]):
            forms = [block_diag(x, y) for x, y in zip(a["forms"], b["forms"])]
        return {
            "class": a["class"],
            "dim": na + nb,
            "basis": [f"e{i}" for i in range(na + nb)],
            "twist": block_diag(a["twist"], b["twist"]),
            "products": products,
            "reps": reps,
            "operators": operators,
            "forms": forms,
            "meta": {},
        }

    out = parts[0]
    for part in parts[1:]:
        out = pair(out, part)
    if cls is not None:
        out = dict(out, **{"class": cls})
    return out


def yau_twist(s: dict, sigma) -> dict:
    """Compose every product with the self-map ``sigma`` and the twist with
    it: x o_sigma y = sigma(x o y), alpha_sigma = alpha sigma."""
    products = {}
    for role, table in s["products"].items():
        new = {}
        for key, cell in table.items():
            out = apply(sigma, cell)
            if out:
                new[key] = out
        products[role] = new
    return dict(s, products=products, twist=matmul(s["twist"], sigma),
                reps=[], operators=[], forms=[], meta={})


def with_operators(s: dict, *matrices) -> dict:
    """Replace the operator list by weight-zero Rota-Baxter witnesses."""
    return dict(s, operators=[{"kind": "rota-baxter", "weight": ZERO,
                               "rep_index": None, "matrix": m}
                              for m in matrices])


def sign_automorphism(dim: int):
    """(a, b) -> (a, -b) on a Cayley-Dickson double: diag(1, .., 1, -1, .., -1),
    an automorphism of the doubled product."""
    sigma = identity(dim)
    for r in range(dim // 2, dim):
        sigma[r][r] = F(-1)
    return sigma


def conjugate(m, g):
    """g^-1 m g: the matrix of the same map in the basis given by g."""
    return matmul(inverse(g), matmul(m, g))


def subalgebra(s: dict, n: int) -> dict:
    """The span of the first ``n`` basis vectors, which must be closed under
    every product (e.g. the quaternions inside the octonions)."""
    products = {}
    for role, table in s["products"].items():
        sub = {(i, j): dict(cell) for (i, j), cell in table.items()
               if i < n and j < n}
        if any(k >= n for cell in sub.values() for k in cell):
            raise ValueError(f"the first {n} basis vectors are not closed")
        products[role] = sub
    return dict(s, dim=n, basis=s["basis"][:n],
                twist=[row[:n] for row in s["twist"][:n]], products=products,
                reps=[], operators=[], forms=[], meta={})


def adjoint_rep(s: dict, role: str = "bracket") -> dict:
    """rho(e_i) e_b = e_i o e_b: the untwisted adjoint (s = 0) action."""
    n = s["dim"]
    table = s["products"][role]
    slices = [zeros(n, n) for _ in range(n)]
    for (i, b), cell in table.items():
        for a, v in cell.items():
            slices[i][a][b] = v
    return {"module_dim": n, "module_twist": [list(r) for r in s["twist"]],
            "actions": {"rho": slices}}


def zero_structure(dim: int, roles, cls: str | None = None) -> dict:
    """Zero products of the given roles with the identity twist."""
    return {"class": cls, "dim": dim, "basis": [f"e{i}" for i in range(dim)],
            "twist": identity(dim), "products": {role: {} for role in roles},
            "reps": [], "operators": [], "forms": [], "meta": {}}
