"""Exact JSON descriptors for resolved actions.

A descriptor file is a strict, fully explicit encoding of a
`ResolvedAction`: ambient dual group, isotropy tree, per-node space data,
per-face maps, optional corner data, window rules, and optional bundle /
Chern tables.  Design points:

- Every number is a string: integers in canonical decimal ("-3", "0", never
  "+3" or "007"), rationals as "p/q" with positive denominator.  JSON
  numbers are rejected outright so nothing ever passes through a float.
- Unknown object keys are rejected, everywhere, and so is an object that
  repeats a key.
- Errors carry the JSON path of the offending value
  ("spaces.0.shifts[0][2][1]: ...").
- Content-equal sub-objects of one descriptor (groups, homomorphisms,
  complexes, chain maps, K-data, spaces) become one object, built and
  checked at their first occurrence, so an error still names the first
  offending path.  Object key order is part of the content.  Nothing is
  shared between two parses.
- Matrices are row-major; shapes are implied by context (a face restriction
  is node-complex -> face-complex) and checked during parsing.
- `serialize_descriptor(parse_descriptor(text))` is a fixed point:
  serialization is deterministic (sorted keys, stable layout).
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from marshal import dumps as _marshal
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .action import ChernData, ResolvedAction, WindowRule
from .basespace import (
    ChainMap,
    CochainComplex,
    CornerData,
    FaceMaps,
    KData,
    KPair,
    NodeSpaceData,
    Z,
)
from .chargroup import SubgroupDatum
from .fgab import AbHom, FgAbGroup
from .itspace import IsotropyTree
from .ratmat import Exact, RationalMatrix, exact

SCHEMA_FORMAT = "resolvedk-action"
SCHEMA_VERSION = "1"

_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)\Z")

_EXPECTED_DIM_KEY = "deloc_dims_by_radius"
_EXPECTED_TEXT_KEYS = ("even_formula", "odd_formula", "per_sector_even_formula")
_EXPECTED_INT_KEYS = ("product_factor_order",)


class DescriptorError(ValueError):
    """Schema violation, annotated with the JSON path of the bad value."""

    def __init__(self, path: Sequence, message: str):
        self.path = tuple(path)
        self.reason = message
        where = _format_path(self.path)
        super().__init__(f"{where}: {message}" if where else message)


def _format_path(path: Sequence) -> str:
    out = ""
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        elif out:
            out += f".{part}"
        else:
            out = str(part)
    return out


class ActionDescriptor:
    """A parsed (or generated) action plus its provenance, if any."""

    __slots__ = ("action", "name", "params")

    def __init__(
        self,
        action: ResolvedAction,
        name: Optional[str] = None,
        params: Optional[Mapping] = None,
    ):
        self.action = action
        self.name = name
        self.params = dict(params) if params else {}


# -- reading: a cursor that tracks its JSON path -------------------------------------


class _Node:
    """A JSON value, where it sits, and the parse's table of built sub-objects.

    `table` holds the sub-objects built so far in this parse (see
    `_interned`); children share their parent's table.
    The path is assembled from the parent chain only when an error needs it.
    """

    __slots__ = ("value", "parent", "key", "table")

    def __init__(self, value, parent: Optional["_Node"], key, table: Dict[tuple, tuple]):
        self.value = value
        self.parent = parent
        self.key = key
        self.table = table

    @property
    def path(self) -> Tuple:
        parts = []
        node = self
        while node.parent is not None:
            parts.append(node.key)
            node = node.parent
        return tuple(reversed(parts))

    def child(self, key) -> "_Node":
        return _Node(self.value[key], self, key, self.table)

    def fail(self, message: str) -> DescriptorError:
        return DescriptorError(self.path, message)

    def object(self, required: Sequence[str] = (), optional: Sequence[str] = ()) -> Dict[str, "_Node"]:
        if not isinstance(self.value, dict):
            raise self.fail(f"expected an object, got {type(self.value).__name__}")
        if self.value.keys() != set(required):
            allowed = set(required) | set(optional)
            unknown = sorted(set(self.value) - allowed)
            if unknown:
                raise self.fail("unknown field(s) " + ", ".join(repr(k) for k in unknown))
            missing = sorted(set(required) - set(self.value))
            if missing:
                raise self.fail("missing field(s) " + ", ".join(repr(k) for k in missing))
        table = self.table
        return {k: _Node(v, self, k, table) for k, v in self.value.items()}

    def array(self, length: Optional[int] = None) -> List["_Node"]:
        if not isinstance(self.value, list):
            raise self.fail(f"expected an array, got {type(self.value).__name__}")
        if length is not None and len(self.value) != length:
            raise self.fail(f"expected {length} entries, got {len(self.value)}")
        table = self.table
        return [_Node(v, self, i, table) for i, v in enumerate(self.value)]

    def string(self) -> str:
        if not isinstance(self.value, str):
            raise self.fail(f"expected a string, got {type(self.value).__name__}")
        return self.value

    def integer(self) -> int:
        text = self.string()
        if not _INT_RE.match(text) or text == "-0":
            raise self.fail(f"not a canonical decimal integer: {text!r}")
        return int(text)

    def rational(self) -> Exact:
        text = self.string()
        num, slash, den = text.partition("/")
        if not _INT_RE.match(num) or num == "-0":
            raise self.fail(f"not a canonical rational: {text!r}")
        if not slash:
            return int(num)
        if not _INT_RE.match(den) or int(den) <= 0:
            raise self.fail(f"denominator must be a positive integer: {text!r}")
        return exact(Fraction(int(num), int(den)))

    def build(self, fn, *args, **kwargs):
        """Run a constructor, converting its ValueError into a located error."""
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise self.fail(str(exc)) from exc


def _interned(builder):
    """Run `builder(node)` once per distinct content of `node` in one parse.

    Later content-equal entries of the same parse share the first one's
    object, which passed every check that a rebuild would repeat.  The
    content key is the value's marshal format 2 bytes: that format writes
    no back-references, so the bytes depend on the content alone, object
    key order included.
    """

    @functools.wraps(builder)
    def build(node: _Node):
        table = node.table
        key = (builder, _marshal(node.value, 2))
        entry = table.get(key)
        if entry is None:
            entry = table[key] = (builder(node),)
        return entry[0]

    return build


def _interned_map(builder):
    """`_interned` for a map `builder(node, source, target)`.

    The key adds the identities of `source` and `target`, and the entry
    keeps both alive so that neither id is reused while the table lives.
    (Fixed arguments rather than `*context`: a parse whose table never
    hits spends measurably less in this wrapper.)
    """

    @functools.wraps(builder)
    def build(node: _Node, source, target):
        table = node.table
        key = (builder, _marshal(node.value, 2), id(source), id(target))
        entry = table.get(key)
        if entry is None:
            entry = table[key] = (builder(node, source, target), source, target)
        return entry[0]

    return build


def _canonical_ints(value, length: Optional[int]) -> bool:
    """Whether `value` is an array of `length` canonical integers, checked at C speed."""
    try:
        return (
            type(value) is list
            and (length is None or len(value) == length)
            and all(map(_INT_RE.match, value))
            and "-0" not in value
        )
    except TypeError:  # an entry that is not a string
        return False


def _numbers(node: _Node, length: Optional[int] = None, read=_Node.integer) -> List[Exact]:
    """An array of numbers; entries are read one by one only to locate an error."""
    if _canonical_ints(node.value, length):
        return list(map(int, node.value))
    return [read(e) for e in node.array(length)]


def _int_vector(node: _Node, length: Optional[int] = None) -> Tuple[int, ...]:
    return tuple(_numbers(node, length))


def _rat_matrix(node: _Node, nrows: int, ncols: int) -> RationalMatrix:
    rows = [_numbers(row, ncols, _Node.rational) for row in node.array(nrows)]
    return RationalMatrix(rows, ncols=ncols)


@_interned
def _group(node: _Node) -> FgAbGroup:
    fields = node.object(required=("free_rank", "torsion"))
    rank = fields["free_rank"].integer()
    torsion = _numbers(fields["torsion"])
    return fields["torsion"].build(FgAbGroup, rank, torsion)


@_interned_map
def _hom(node: _Node, domain: FgAbGroup, codomain: FgAbGroup) -> AbHom:
    rows = [_numbers(row, domain.ngens) for row in node.array(codomain.ngens)]
    return node.build(AbHom, domain, codomain, rows)


@_interned
def _complex(node: _Node) -> CochainComplex:
    fields = node.object(required=("dims", "differentials"))
    dims = _numbers(fields["dims"])
    if not dims:
        raise fields["dims"].fail("dimension vector is empty")
    blocks_node = fields["differentials"].array(max(len(dims) - 1, 0))
    blocks = [
        _rat_matrix(b, dims[k + 1], dims[k]) for k, b in enumerate(blocks_node)
    ]
    return node.build(CochainComplex, dims, blocks)


def _graded_map(node: _Node, source: CochainComplex, target: CochainComplex, degree: int) -> ChainMap:
    matrix = _rat_matrix(node, target.total_dim, source.total_dim)
    return node.build(ChainMap, source, target, matrix, degree)


@_interned_map
def _chain_map(node: _Node, source: CochainComplex, target: CochainComplex) -> ChainMap:
    return _graded_map(node, source, target, 0)


@_interned_map
def _shift(node: _Node, source: CochainComplex, target: CochainComplex) -> ChainMap:
    """A shift operator: a degree-two chain endomorphism."""
    return _graded_map(node, source, target, 2)


@_interned
def _kdata(node: _Node) -> KData:
    fields = node.object(required=("k0", "k1", "sigma0", "sigma1", "dim_hom"))
    k0 = _group(fields["k0"])
    k1 = _group(fields["k1"])
    sigma0 = [_hom(e, k0, k0) for e in fields["sigma0"].array()]
    sigma1 = [_hom(e, k1, k1) for e in fields["sigma1"].array()]
    # one codomain object, so content-equal dimension homs are interned as one
    dim_hom = _hom(fields["dim_hom"], k0, Z)
    return node.build(KData, k0, k1, sigma0, sigma1, dim_hom)


@_interned
def _space(node: _Node) -> NodeSpaceData:
    fields = node.object(required=("complex", "shifts", "k"))
    cx = _complex(fields["complex"])
    shifts = [_shift(e, cx, cx) for e in fields["shifts"].array()]
    kdata = _kdata(fields["k"])
    return node.build(NodeSpaceData, cx, shifts, kdata)


def _kpair(node: _Node, src: KData, dst: KData) -> KPair:
    fields = node.object(required=("even", "odd"))
    return KPair(
        _hom(fields["even"], src.k0, dst.k0),
        _hom(fields["odd"], src.k1, dst.k1),
    )


def _face(node: _Node, shallow: NodeSpaceData, deep: NodeSpaceData) -> FaceMaps:
    fields = node.object(
        required=("space", "restriction", "pullback", "k_restriction", "k_pullback")
    )
    face_space = _space(fields["space"])
    rho = _chain_map(fields["restriction"], shallow.complex, face_space.complex)
    pullback = _chain_map(fields["pullback"], deep.complex, face_space.complex)
    rho_k = _kpair(fields["k_restriction"], shallow.kdata, face_space.kdata)
    pullback_k = _kpair(fields["k_pullback"], deep.kdata, face_space.kdata)
    return node.build(FaceMaps, face_space, rho, pullback, rho_k, pullback_k)


def _corner(node: _Node, face_ab: FaceMaps, face_ag: FaceMaps, face_bg: FaceMaps) -> CornerData:
    fields = node.object(
        required=("complex", "shifts", "into_ab", "into_ag", "pull_bg"),
        optional=("k0", "sigma0", "into_ab_k", "into_ag_k", "pull_bg_k"),
    )
    cx = _complex(fields["complex"])
    shifts = [_shift(e, cx, cx) for e in fields["shifts"].array()]
    into_ab = _chain_map(fields["into_ab"], face_ab.face.complex, cx)
    into_ag = _chain_map(fields["into_ag"], face_ag.face.complex, cx)
    pull_bg = _chain_map(fields["pull_bg"], face_bg.face.complex, cx)
    k_keys = ("k0", "sigma0", "into_ab_k", "into_ag_k", "pull_bg_k")
    present = [k for k in k_keys if k in fields]
    if present and len(present) != len(k_keys):
        raise node.fail(
            "the K0 block needs all of " + ", ".join(k_keys) + " or none"
        )
    k0 = sigma0 = into_ab_k = into_ag_k = pull_bg_k = None
    if present:
        k0 = _group(fields["k0"])
        sigma0 = [_hom(e, k0, k0) for e in fields["sigma0"].array()]
        into_ab_k = _hom(fields["into_ab_k"], face_ab.face.kdata.k0, k0)
        into_ag_k = _hom(fields["into_ag_k"], face_ag.face.kdata.k0, k0)
        pull_bg_k = _hom(fields["pull_bg_k"], face_bg.face.kdata.k0, k0)
    return node.build(
        CornerData, cx, shifts, into_ab, into_ag, pull_bg,
        k0=k0, sigma0=sigma0 or (), into_ab_k=into_ab_k,
        into_ag_k=into_ag_k, pull_bg_k=pull_bg_k,
    )


def _window(node: _Node) -> WindowRule:
    fields = node.object(required=("kind",), optional=("chars", "radius", "modulus"))
    kind = fields["kind"].string()
    if kind == "explicit":
        if "radius" in fields or "modulus" in fields:
            raise node.fail("explicit windows take only 'chars'")
        if "chars" not in fields:
            raise node.fail("missing field(s) 'chars'")
        chars = [_int_vector(e) for e in fields["chars"].array()]
        return node.build(WindowRule, "explicit", chars)
    if kind == "full":
        if len(fields) > 1:
            raise node.fail("full windows take no parameters")
        return WindowRule.full()
    if kind == "ball":
        if "chars" in fields or "modulus" in fields:
            raise node.fail("ball windows take only 'radius'")
        if "radius" not in fields:
            raise node.fail("missing field(s) 'radius'")
        return node.build(WindowRule.ball, fields["radius"].integer())
    if kind == "residue_ball":
        if "chars" in fields:
            raise node.fail("residue windows take 'modulus' and 'radius'")
        if "radius" not in fields or "modulus" not in fields:
            raise node.fail("missing field(s) 'modulus'/'radius'")
        return node.build(
            WindowRule.residue_ball,
            fields["modulus"].integer(),
            fields["radius"].integer(),
        )
    raise fields["kind"].fail(f"unknown window kind {kind!r}")


def _label(node: _Node) -> str:
    text = node.string()
    if not text or "<" in text:
        raise node.fail(f"invalid node label {text!r}")
    return text


def _pair_key(node: _Node, raw: str) -> Tuple[str, str]:
    parts = raw.split("<")
    if len(parts) != 2 or not all(parts):
        raise node.fail(f"face key must look like 'a<b', got {raw!r}")
    return parts[0], parts[1]


def _chain_key(node: _Node, raw: str) -> Tuple[str, str, str]:
    parts = raw.split("<")
    if len(parts) != 3 or not all(parts):
        raise node.fail(f"corner key must look like 'a<b<c', got {raw!r}")
    return parts[0], parts[1], parts[2]


def _expected(node: _Node) -> Dict:
    fields = node.object(
        optional=(_EXPECTED_DIM_KEY,) + _EXPECTED_TEXT_KEYS + _EXPECTED_INT_KEYS
    )
    out: Dict = {}
    if _EXPECTED_DIM_KEY in fields:
        table = fields[_EXPECTED_DIM_KEY]
        if not isinstance(table.value, dict):
            raise table.fail("expected an object keyed by window radius")
        dims = {}
        for key in table.value:
            entry = table.child(key)
            if not _INT_RE.match(key) or key.startswith("-"):
                raise entry.fail(f"radius key must be a nonnegative integer, got {key!r}")
            dims[key] = _numbers(entry, 2)
        out[_EXPECTED_DIM_KEY] = dims
    for key in _EXPECTED_TEXT_KEYS:
        if key in fields:
            out[key] = fields[key].string()
    for key in _EXPECTED_INT_KEYS:
        if key in fields:
            out[key] = fields[key].integer()
    return out


def _load_json(text: str):
    """Decode JSON, rejecting any object that repeats a key, at that object's path."""
    repeated: Dict[int, str] = {}

    def make_object(pairs: List[Tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set = set()
            repeated[id(obj)] = next(k for k, _ in pairs if k in seen or seen.add(k))
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=make_object)
    except json.JSONDecodeError as exc:
        raise DescriptorError((), f"not valid JSON: {exc}") from exc
    if repeated:
        path, key = _first_repeat(raw, (), repeated)
        raise DescriptorError(path, f"duplicate key {key!r}")
    return raw


def _first_repeat(value, path: Tuple, repeated: Mapping[int, str]):
    """Path and key of the first object, in document order, that repeats a key."""
    if isinstance(value, dict):
        if id(value) in repeated:
            return path, repeated[id(value)]
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return None
    for key, child in children:
        found = _first_repeat(child, path + (key,), repeated)
        if found is not None:
            return found
    return None


def parse_descriptor(text: str) -> ActionDescriptor:
    """Parse and structurally validate a descriptor file."""
    root = _Node(_load_json(text), None, None, {})
    fields = root.object(
        required=("format", "version", "group", "tree", "windows", "spaces", "faces"),
        optional=("corners", "bundles", "chern", "notes", "expected"),
    )
    if fields["format"].string() != SCHEMA_FORMAT:
        raise fields["format"].fail(f"expected format {SCHEMA_FORMAT!r}")
    if fields["version"].string() != SCHEMA_VERSION:
        raise fields["version"].fail(f"unsupported version (expected {SCHEMA_VERSION!r})")

    ambient = _group(fields["group"])

    tree_fields = fields["tree"].object(
        required=("nodes", "order", "face_ids", "corner_chains")
    )
    nodes_node = tree_fields["nodes"]
    if not isinstance(nodes_node.value, dict):
        raise nodes_node.fail("expected an object of node data")
    datums: Dict[str, SubgroupDatum] = {}
    for raw_label in nodes_node.value:
        entry = nodes_node.child(raw_label)
        label = _label(_Node(raw_label, entry.parent, entry.key, entry.table))
        node_fields = entry.object(required=("target", "restriction", "kernel_basis"))
        target = _group(node_fields["target"])
        restriction = _hom(node_fields["restriction"], ambient, target)
        basis = [_int_vector(e, ambient.ngens) for e in node_fields["kernel_basis"].array()]
        datums[label] = entry.build(SubgroupDatum, restriction, kernel_basis=basis)

    order = []
    for pair in tree_fields["order"].array():
        a, b = (e.string() for e in pair.array(2))
        for lab in (a, b):
            if lab not in datums:
                raise pair.fail(f"order relation uses unknown node {lab!r}")
        order.append((a, b))

    face_ids_node = tree_fields["face_ids"]
    if not isinstance(face_ids_node.value, dict):
        raise face_ids_node.fail("expected an object of face names")
    face_ids = {}
    for raw_key in face_ids_node.value:
        entry = face_ids_node.child(raw_key)
        face_ids[_pair_key(entry, raw_key)] = entry.string()

    corner_chains = []
    for chain in tree_fields["corner_chains"].array():
        labels = tuple(e.string() for e in chain.array(3))
        for lab in labels:
            if lab not in datums:
                raise chain.fail(f"corner chain uses unknown node {lab!r}")
        corner_chains.append(labels)

    tree = fields["tree"].build(
        IsotropyTree, datums, order, face_ids=face_ids, corner_chains=corner_chains
    )
    if set(face_ids) != set(tree.order):
        raise face_ids_node.fail("face names must cover exactly the comparable pairs")

    def per_node_objects(node: _Node, what: str) -> Dict[str, _Node]:
        if not isinstance(node.value, dict):
            raise node.fail(f"expected an object of per-node {what}")
        out = {}
        for raw_label in node.value:
            entry = node.child(raw_label)
            if raw_label not in datums:
                raise entry.fail(f"unknown node {raw_label!r}")
            out[raw_label] = entry
        missing = sorted(set(datums) - set(out))
        if missing:
            raise node.fail("missing node(s) " + ", ".join(repr(k) for k in missing))
        return out

    spaces = {
        label: _space(entry)
        for label, entry in per_node_objects(fields["spaces"], "space data").items()
    }
    windows = {
        label: _window(entry)
        for label, entry in per_node_objects(fields["windows"], "window rules").items()
    }

    faces_node = fields["faces"]
    if not isinstance(faces_node.value, dict):
        raise faces_node.fail("expected an object of face data")
    faces: Dict[Tuple[str, str], FaceMaps] = {}
    for raw_key in faces_node.value:
        entry = faces_node.child(raw_key)
        pair = _pair_key(entry, raw_key)
        if pair not in tree.order:
            raise entry.fail(f"nodes {pair[0]!r}, {pair[1]!r} are not comparable")
        faces[pair] = _face(entry, spaces[pair[0]], spaces[pair[1]])
    missing_faces = sorted(set(tree.order) - set(faces))
    if missing_faces:
        raise faces_node.fail(
            "missing face(s) " + ", ".join(f"'{a}<{b}'" for a, b in missing_faces)
        )

    corners: Dict[Tuple[str, ...], CornerData] = {}
    if "corners" in fields:
        corners_node = fields["corners"]
        if not isinstance(corners_node.value, dict):
            raise corners_node.fail("expected an object of corner data")
        for raw_key in corners_node.value:
            entry = corners_node.child(raw_key)
            chain = _chain_key(entry, raw_key)
            if chain not in tree.corner_chains:
                raise entry.fail(f"chain {raw_key!r} is not declared in the tree")
            a, b, g = chain
            corners[chain] = _corner(entry, faces[(a, b)], faces[(a, g)], faces[(b, g)])

    bundles: Dict[str, Dict[str, Dict[Tuple[int, ...], Tuple[int, ...]]]] = {}
    if "bundles" in fields:
        bundles_node = fields["bundles"]
        if not isinstance(bundles_node.value, dict):
            raise bundles_node.fail("expected an object of bundles")
        for name in bundles_node.value:
            per_node = bundles_node.child(name)
            if not isinstance(per_node.value, dict):
                raise per_node.fail("expected an object keyed by node label")
            table: Dict[str, Dict[Tuple[int, ...], Tuple[int, ...]]] = {}
            for label in per_node.value:
                entry = per_node.child(label)
                if label not in datums:
                    raise entry.fail(f"unknown node {label!r}")
                k0 = spaces[label].kdata.k0
                rows = {}
                for item in entry.array():
                    item_fields = item.object(required=("char", "class"))
                    coords = _int_vector(item_fields["char"], ambient.ngens)
                    cls = _int_vector(item_fields["class"], k0.ngens)
                    if coords in rows:
                        raise item.fail(f"duplicate character {coords}")
                    rows[coords] = cls
                table[label] = rows
            bundles[name] = table

    chern = None
    if "chern" in fields:
        reps = {}
        for label, entry in per_node_objects(fields["chern"], "Chern data").items():
            total = spaces[label].complex.total_dim
            reps[label] = [
                tuple(_numbers(vec, total, _Node.rational))
                for vec in entry.array()
            ]
        chern = ChernData(reps)

    notes = ()
    if "notes" in fields:
        notes = tuple(e.string() for e in fields["notes"].array())
    expected = _expected(fields["expected"]) if "expected" in fields else {}

    action = root.build(
        ResolvedAction, tree, spaces, faces, windows,
        corners=corners, bundles=bundles or None, chern=chern,
        notes=notes, expected=expected or None,
    )
    return ActionDescriptor(action)


# -- writing ---------------------------------------------------------------------------


def _int_str(n) -> str:
    return str(int(n))


def _rat_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _group_json(g: FgAbGroup) -> Dict:
    return {"free_rank": _int_str(g.free_rank), "torsion": [_int_str(d) for d in g.torsion]}


def _matrix_json(m: RationalMatrix) -> List[List[str]]:
    return [[_rat_str(x) for x in row] for row in m.to_lists()]


def _complex_json(cx: CochainComplex) -> Dict:
    return {
        "dims": [_int_str(n) for n in cx.dims],
        "differentials": [
            _matrix_json(cx.differential_block(k)) for k in range(len(cx.dims) - 1)
        ],
    }


def _kdata_json(k: KData) -> Dict:
    return {
        "k0": _group_json(k.k0),
        "k1": _group_json(k.k1),
        "sigma0": [_matrix_json(a.matrix) for a in k.sigma0],
        "sigma1": [_matrix_json(a.matrix) for a in k.sigma1],
        "dim_hom": _matrix_json(k.dim_hom.matrix),
    }


def _space_json(space: NodeSpaceData) -> Dict:
    return {
        "complex": _complex_json(space.complex),
        "shifts": [_matrix_json(s.matrix) for s in space.shifts],
        "k": _kdata_json(space.kdata),
    }


def _face_json(fm: FaceMaps) -> Dict:
    return {
        "space": _space_json(fm.face),
        "restriction": _matrix_json(fm.rho.matrix),
        "pullback": _matrix_json(fm.pullback.matrix),
        "k_restriction": {
            "even": _matrix_json(fm.rho_k.even.matrix),
            "odd": _matrix_json(fm.rho_k.odd.matrix),
        },
        "k_pullback": {
            "even": _matrix_json(fm.pullback_k.even.matrix),
            "odd": _matrix_json(fm.pullback_k.odd.matrix),
        },
    }


def _corner_json(c: CornerData) -> Dict:
    out = {
        "complex": _complex_json(c.corner),
        "shifts": [_matrix_json(s.matrix) for s in c.shifts],
        "into_ab": _matrix_json(c.into_ab.matrix),
        "into_ag": _matrix_json(c.into_ag.matrix),
        "pull_bg": _matrix_json(c.pull_bg.matrix),
    }
    if c.has_k_level:
        out["k0"] = _group_json(c.k0)
        out["sigma0"] = [_matrix_json(a.matrix) for a in c.sigma0]
        out["into_ab_k"] = _matrix_json(c.into_ab_k.matrix)
        out["into_ag_k"] = _matrix_json(c.into_ag_k.matrix)
        out["pull_bg_k"] = _matrix_json(c.pull_bg_k.matrix)
    return out


def _window_json(rule: WindowRule) -> Dict:
    if rule.kind == "explicit":
        return {"kind": "explicit", "chars": [[_int_str(x) for x in c] for c in rule.chars]}
    if rule.kind == "full":
        return {"kind": "full"}
    if rule.kind == "ball":
        return {"kind": "ball", "radius": _int_str(rule.radius)}
    return {
        "kind": "residue_ball",
        "modulus": _int_str(rule.modulus),
        "radius": _int_str(rule.radius),
    }


def serialize_descriptor(obj) -> str:
    """Canonical JSON text for an action (or a parsed/generated descriptor)."""
    action = obj.action if isinstance(obj, ActionDescriptor) else obj
    tree = action.tree
    doc: Dict = {
        "format": SCHEMA_FORMAT,
        "version": SCHEMA_VERSION,
        "group": _group_json(action.group),
        "tree": {
            "nodes": {
                label: {
                    "target": _group_json(datum.target),
                    "restriction": _matrix_json(datum.restriction.matrix),
                    "kernel_basis": [
                        [_int_str(x) for x in ch.coords] for ch in datum.kernel_basis
                    ],
                }
                for label, datum in sorted(tree.nodes.items())
            },
            "order": [list(pair) for pair in sorted(tree.order)],
            "face_ids": {f"{a}<{b}": tree.face_ids[(a, b)] for a, b in sorted(tree.order)},
            "corner_chains": [list(chain) for chain in sorted(tree.corner_chains)],
        },
        "windows": {
            label: _window_json(rule) for label, rule in sorted(action.window_rules.items())
        },
        "spaces": {label: _space_json(s) for label, s in sorted(action.spaces.items())},
        "faces": {f"{a}<{b}": _face_json(fm) for (a, b), fm in sorted(action.faces.items())},
    }
    if action.corners:
        doc["corners"] = {
            "<".join(chain): _corner_json(c) for chain, c in sorted(action.corners.items())
        }
    if action.bundles:
        doc["bundles"] = {
            name: {
                label: [
                    {"char": [_int_str(x) for x in coords], "class": [_int_str(x) for x in cls]}
                    for coords, cls in sorted(table.items())
                ]
                for label, table in sorted(per_node.items())
            }
            for name, per_node in sorted(action.bundles.items())
        }
    if action.chern is not None:
        doc["chern"] = {
            label: [[_rat_str(x) for x in vec] for vec in vecs]
            for label, vecs in sorted(action.chern.reps.items())
        }
    if action.notes:
        doc["notes"] = list(action.notes)
    if action.expected:
        exp: Dict = {}
        for key, value in action.expected.items():
            if key == _EXPECTED_DIM_KEY:
                exp[key] = {
                    radius: [_int_str(v) for v in dims]
                    for radius, dims in sorted(value.items(), key=lambda kv: int(kv[0]))
                }
            elif key in _EXPECTED_TEXT_KEYS:
                exp[key] = str(value)
            elif key in _EXPECTED_INT_KEYS:
                exp[key] = _int_str(value)
            else:
                raise ValueError(f"cannot serialize expected-output key {key!r}")
        doc["expected"] = exp
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- built-in fixtures -------------------------------------------------------------------


FIXTURE_NAMES = (
    "sphere_rotation",
    "sphere_rotation_speed",
    "product_trivial",
    "projective_plane",
)


def generate_fixture(name: str, params: Optional[Mapping] = None) -> ActionDescriptor:
    """Expand a named fixture into a full descriptor.

    `sphere_rotation_speed` takes {"n": k} with k >= 2; `product_trivial`
    takes {"torsion": [d, ...]} for the invariant factors of the extra
    finite group.  The other fixtures take no parameters.
    """
    from . import fixtures  # imported on use: a descriptor file never needs it

    params = dict(params or {})
    if name == "sphere_rotation":
        _no_params(name, params)
        return ActionDescriptor(fixtures.sphere_rotation(), name=name)
    if name == "sphere_rotation_speed":
        n = params.pop("n", None)
        _no_params(name, params)
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"fixture {name!r} needs an integer parameter n >= 2")
        return ActionDescriptor(fixtures.sphere_rotation_speed(n), name=name, params={"n": n})
    if name == "product_trivial":
        torsion = params.pop("torsion", None)
        _no_params(name, params)
        if (
            not isinstance(torsion, (list, tuple))
            or not torsion
            or not all(isinstance(d, int) for d in torsion)
        ):
            raise ValueError(
                f"fixture {name!r} needs a nonempty integer list parameter 'torsion'"
            )
        action = fixtures.product_trivial(tuple(torsion))
        return ActionDescriptor(action, name=name, params={"torsion": list(torsion)})
    if name == "projective_plane":
        _no_params(name, params)
        return ActionDescriptor(fixtures.projective_plane(), name=name)
    raise ValueError(
        f"unknown fixture {name!r}; available: " + ", ".join(FIXTURE_NAMES)
    )


def _no_params(name: str, leftover: Mapping) -> None:
    if leftover:
        raise ValueError(
            f"fixture {name!r} does not take parameter(s) "
            + ", ".join(sorted(map(repr, leftover)))
        )
