"""Symbolic shape/dtype abstract interpretation for the nn substrate.

This module is the engine behind the ``shape-spec`` and ``dtype-lattice``
checkers (:mod:`repro.analysis.checks.shapes`).
It never imports numpy or executes model code: every layer in
``repro.nn`` declares its symbolic signature with the runtime-inert
``@shape_spec`` decorator (see :mod:`repro.nn.spec`), and this module
re-reads those declarations *from the AST* and abstractly interprets
the decorated method bodies over:

- a **symbolic dimension algebra** (:class:`Dim`): sums of rational
  multiples of symbol products, so ``4*hidden_dim``, ``dim`` vs
  ``num_heads*head_dim`` (via the auto-derived equation
  ``head_dim = dim/num_heads``) and slice extents like
  ``(t+1) - t == 1`` all normalize and compare structurally;
- an **abstract dtype lattice**: ``bool < int64 < float32 < float64``
  plus ``any`` (unknown).  The substrate's canonical dtype is
  **float64** — ``nn.tensor`` coerces every tensor to it — so any op
  whose abstract result is a *different* concrete float (dtype creep
  via numpy promotion, e.g. a stray ``float32`` literal) is a finding.

Interpretation is deliberately conservative: any construct outside the
nn idiom subset (advanced indexing, data-dependent control flow …)
evaluates to ``ANY`` and produces **no** finding.  Findings are emitted
only for *provable* violations — a matmul whose inner dims are distinct
class-level symbols, a declared output spec the body cannot produce, a
rank-equal broadcast that silently stretches a declared size-1 dim.

Layers have one body each, written against the ``nn.functional`` op
table, so there is no second copy for a static check to keep in sync:
tape↔kernel identity is the op table's property and is tested where it
lives (``tests/test_op_table.py``).  The interpreter walks that single
body; op-table calls resolve through the ``@shape_spec`` declared on the
kernel of the same name.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

__all__ = [
    "Dim",
    "SymTensor",
    "ANY",
    "STAR",
    "CANONICAL_DTYPE",
    "promote",
    "parse_shape",
    "Problem",
    "ClassInfo",
    "SpecRegistry",
    "collect_registry",
    "library_registry",
    "interpret_class",
    "dtype_problems",
]


# ---------------------------------------------------------------------------
# Symbolic dimension algebra
# ---------------------------------------------------------------------------
class Dim:
    """A symbolic dimension: sum of terms ``coeff * prod(sym**pow)``.

    Normal form keeps terms sorted by factor tuple with like terms
    merged, so structural equality is semantic equality over the free
    symbols (division is exact by construction — the only ``//`` the
    collector admits is one whose exactness the constructor checks,
    e.g. ``dim // num_heads`` after ``dim % num_heads == 0``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple, Fraction] = {}
        for coeff, factors in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            merged[factors] = merged.get(factors, Fraction(0)) + coeff
        self.terms = tuple(
            sorted((f, c) for f, c in merged.items() if c != 0)
        )

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(value) -> "Dim":
        return Dim([(Fraction(value), ())])

    @staticmethod
    def sym(name: str) -> "Dim":
        return Dim([(Fraction(1), ((name, 1),))])

    # -- predicates ---------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return all(not factors for factors, _ in self.terms)

    @property
    def const_value(self):
        if not self.terms:
            return 0
        if self.is_const:
            return self.terms[0][1]
        return None

    @property
    def is_one(self) -> bool:
        return self.const_value == 1

    def free_symbols(self) -> set[str]:
        return {sym for factors, _ in self.terms for sym, _ in factors}

    @property
    def is_fresh(self) -> bool:
        """True when the dim involves an engine-generated placeholder."""
        return any(sym.startswith("?") for sym in self.free_symbols())

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Dim") -> "Dim":
        return Dim([(c, f) for f, c in self.terms] + [(c, f) for f, c in other.terms])

    def __sub__(self, other: "Dim") -> "Dim":
        return self + other * Dim.const(-1)

    def __mul__(self, other: "Dim") -> "Dim":
        out = []
        for f1, c1 in self.terms:
            for f2, c2 in other.terms:
                powers: dict[str, int] = {}
                for sym, power in itertools.chain(f1, f2):
                    powers[sym] = powers.get(sym, 0) + power
                factors = tuple(sorted((s, p) for s, p in powers.items() if p))
                out.append((c1 * c2, factors))
        return Dim(out)

    def __truediv__(self, other: "Dim") -> "Dim | None":
        """Division by a single-term dim; None when not representable."""
        if len(other.terms) != 1:
            return None
        factors, coeff = other.terms[0]
        inverse = Dim([(1 / coeff, tuple((s, -p) for s, p in factors))])
        return self * inverse

    def subst(self, mapping: dict[str, "Dim"]) -> "Dim":
        """Substitute symbols by dims (symbols absent stay themselves)."""
        result = Dim([])
        for factors, coeff in self.terms:
            term = Dim([(coeff, ())])
            for sym, power in factors:
                base = mapping.get(sym, Dim.sym(sym))
                if power >= 0:
                    for _ in range(power):
                        term = term * base
                else:
                    for _ in range(-power):
                        divided = term / base
                        if divided is None:  # keep symbolic, unsubstituted
                            divided = term * Dim([(Fraction(1), ((sym, -1),))])
                        term = divided
            result = result + term
        return result

    # -- identity -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Dim) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for factors, coeff in self.terms:
            syms = "*".join(
                sym if power == 1 else f"{sym}^{power}" for sym, power in factors
            )
            if not syms:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(syms)
            else:
                parts.append(f"{coeff}*{syms}")
        return "+".join(parts)


_FRESH_COUNTER = itertools.count()


def fresh_dim(hint: str = "") -> Dim:
    """An engine-generated placeholder dim; never provably (un)equal."""
    return Dim.sym(f"?{hint}{next(_FRESH_COUNTER)}")


def provably_different(a: Dim, b: Dim) -> bool:
    """Structurally different with no fresh placeholder on either side."""
    return a != b and not a.is_fresh and not b.is_fresh


# ---------------------------------------------------------------------------
# Abstract dtype lattice
# ---------------------------------------------------------------------------
# The canonical float of the substrate.  The ISSUE phrases dtype creep as
# "not float32", but nn.tensor documents and enforces float64 as the sole
# tensor dtype (``_as_array`` coerces; kernels allocate float64): the
# invariant worth pinning is "the canonical float, and only it" — so the
# lattice flags any concrete float that is not float64.
CANONICAL_DTYPE = "float64"
_DTYPES = ("bool", "int64", "float32", "float64")


def promote(a: str, b: str) -> str:
    """Numpy-style promotion over the abstract lattice."""
    if a == "any" or b == "any":
        return "any"
    return _DTYPES[max(_DTYPES.index(a), _DTYPES.index(b))]


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------
class _Star:
    """Leading-wildcard marker: 'any number of leading dims'."""

    def __repr__(self) -> str:
        return "..."


STAR = _Star()


@dataclass(frozen=True)
class SymTensor:
    """Abstract tensor: a dim tuple (optionally ``STAR``-led) + dtype."""

    dims: tuple
    dtype: str = CANONICAL_DTYPE

    @property
    def has_star(self) -> bool:
        return bool(self.dims) and self.dims[0] is STAR

    def __repr__(self) -> str:
        inner = ", ".join(repr(d) for d in self.dims)
        return f"({inner}):{self.dtype}"


class _Any:
    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()


@dataclass(frozen=True)
class Scalar:
    """A (possibly symbolic) 0-d value; ``dim`` is None when unknown."""

    dim: Dim | None = None
    dtype: str = "int64"


@dataclass
class ListVal:
    """A homogeneous list being accumulated (``outputs.append(h)``)."""

    elem: object = ANY


@dataclass(frozen=True)
class TupleVal:
    items: tuple = ()


@dataclass(frozen=True)
class ShapeVal:
    """``x.shape`` of a known symbolic tensor."""

    tensor: SymTensor


@dataclass(frozen=True)
class ModuleRef:
    """A reference to a sub-module attribute with bound ctor symbols."""

    class_name: str
    bindings: tuple  # tuple of (callee symbol, Dim in caller space)
    attr: str = ""


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------
def _dim_from_ast(node: ast.AST, env: dict | None = None) -> Dim | None:
    """Dim for an arithmetic AST over ints / symbols, else None."""
    env = env or {}
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return None
        return Dim.const(node.value)
    if isinstance(node, ast.Name):
        bound = env.get(node.id)
        return bound if isinstance(bound, Dim) else Dim.sym(node.id)
    if isinstance(node, ast.Attribute):  # config.d_model -> d_model
        return Dim.sym(node.attr)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _dim_from_ast(node.operand, env)
        return None if inner is None else inner * Dim.const(-1)
    if isinstance(node, ast.BinOp):
        left = _dim_from_ast(node.left, env)
        right = _dim_from_ast(node.right, env)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return left / right
    return None


def parse_shape(spec: str) -> tuple | None:
    """Parse a spec string like ``"(B, L, dim)"`` / ``"(..., d)"``.

    Returns a tuple of :class:`Dim` (with ``STAR`` allowed only in the
    leading position), or None when the string does not parse.
    """
    try:
        tree = ast.parse(spec, mode="eval").body
    except SyntaxError:
        return None
    elements = list(tree.elts) if isinstance(tree, ast.Tuple) else [tree]
    dims: list = []
    for index, element in enumerate(elements):
        if isinstance(element, ast.Constant) and element.value is Ellipsis:
            if index != 0:
                return None
            dims.append(STAR)
            continue
        dim = _dim_from_ast(element)
        if dim is None:
            return None
        dims.append(dim)
    return tuple(dims)


@dataclass
class MethodSpec:
    """One ``@shape_spec`` declaration plus its function AST."""

    name: str
    inputs: dict  # arg name -> SymTensor | TupleVal | None
    out: object  # SymTensor | TupleVal | None
    params: tuple | None
    node: ast.FunctionDef
    lineno: int
    raw_out: object = None  # the declared out spec as written

    def arg_names(self) -> list[str]:
        args = [a.arg for a in self.node.args.args]
        return args[1:] if args and args[0] == "self" else args


def _spec_value(shape, dtype: str):
    """SymTensor / TupleVal for a declared shape string or tuple of them."""
    if isinstance(shape, str):
        dims = parse_shape(shape)
        return None if dims is None else SymTensor(dims, dtype)
    if isinstance(shape, tuple):
        items = tuple(_spec_value(s, dtype) for s in shape)
        return None if any(i is None for i in items) else TupleVal(items)
    return None


def _parse_decorator(func: ast.FunctionDef) -> MethodSpec | None:
    for decorator in func.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = _dotted(decorator.func)
        if name is None or name.rsplit(".", 1)[-1] != "shape_spec":
            continue
        kwargs: dict = {}
        for keyword in decorator.keywords:
            try:
                kwargs[keyword.arg] = ast.literal_eval(keyword.value)
            except ValueError:
                return None
        dtypes = kwargs.get("dtypes") or {}
        inputs = {
            arg: _spec_value(shape, dtypes.get(arg, CANONICAL_DTYPE))
            for arg, shape in (kwargs.get("inputs") or {}).items()
        }
        out_shape = kwargs.get("out")
        return MethodSpec(
            name=func.name,
            inputs=inputs,
            out=_spec_value(out_shape, dtypes.get("out", CANONICAL_DTYPE))
            if out_shape is not None
            else None,
            params=tuple(kwargs["params"]) if "params" in kwargs else None,
            node=func,
            lineno=decorator.lineno,
            raw_out=out_shape,
        )
    return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Class collection
# ---------------------------------------------------------------------------
@dataclass
class AttrInfo:
    kind: str  # "param" | "module" | "module_list" | "scalar" | "other"
    shape: tuple | None = None  # for params
    class_name: str | None = None  # for module / module_list
    bindings: tuple = ()  # (callee ctor symbol, Dim) for module kinds
    dim: Dim | None = None  # for scalars


@dataclass
class ClassInfo:
    name: str
    rel_path: str
    node: ast.ClassDef
    attrs: dict = field(default_factory=dict)  # attr -> AttrInfo
    equations: dict = field(default_factory=dict)  # symbol -> Dim
    methods: dict = field(default_factory=dict)  # name -> MethodSpec
    func_nodes: dict = field(default_factory=dict)  # name -> FunctionDef


@dataclass
class SpecRegistry:
    classes: dict = field(default_factory=dict)  # name -> ClassInfo
    functions: dict = field(default_factory=dict)  # name -> MethodSpec

    def class_for(self, name: str | None) -> ClassInfo | None:
        return self.classes.get(name) if name else None


_PARAM_FACTORIES = frozenset({"Parameter"})


def _ground(dim: Dim | None, env: dict) -> Dim | None:
    """Fresh-out symbols that are not ctor params / __init__ locals.

    List-comprehension variables (``Linear(a, b) for a, b in zip(...)``)
    and module-level constants are not part of the class's symbol space;
    letting them through as named symbols would make unrelated dims
    spuriously comparable.
    """
    if dim is None:
        return None
    unknown = {
        s for s in dim.free_symbols() if s not in env and not s.startswith("?")
    }
    return fresh_dim("g") if unknown else dim


def _param_shape(call: ast.Call, env: dict) -> tuple | None:
    """Heuristic shape of ``Parameter(<initializer>)`` from the AST."""
    if not call.args:
        return None
    init = call.args[0]
    shape_node = None
    if isinstance(init, ast.Call):
        for keyword in init.keywords:
            if keyword.arg in ("size", "shape"):
                shape_node = keyword.value
        if shape_node is None and init.args:
            # np.zeros(out_features) / xavier_uniform((a, b), rng)
            first = init.args[0]
            shape_node = first
    if shape_node is None:
        return None
    elements = (
        list(shape_node.elts)
        if isinstance(shape_node, (ast.Tuple, ast.List))
        else [shape_node]
    )
    dims = []
    for element in elements:
        dim = _ground(_dim_from_ast(element, env), env)
        if dim is None:
            return None
        dims.append(dim)
    return tuple(dims)


def _ctor_bindings(
    class_info: ClassInfo, call: ast.Call, env: dict
) -> tuple:
    """Map callee ctor params to caller-space dims for a submodule ctor."""
    init = class_info.func_nodes.get("__init__")
    if init is None:
        return ()
    names = [a.arg for a in init.args.args][1:]  # drop self
    bindings: list = []
    for index, arg in enumerate(call.args):
        if index >= len(names):
            break
        dim = _ground(_dim_from_ast(arg, env), env)
        bindings.append((names[index], dim if dim is not None else fresh_dim(names[index])))
    for keyword in call.keywords:
        if keyword.arg in names and all(b[0] != keyword.arg for b in bindings):
            dim = _ground(_dim_from_ast(keyword.value, env), env)
            if dim is not None:
                bindings.append((keyword.arg, dim))
    return tuple(bindings)


def _index_class_functions(info: ClassInfo) -> None:
    """First-pass scan: every method node + declared spec, before any
    attr collection runs.  ``_ctor_bindings`` reads the *callee's*
    ``__init__`` params, so this must be complete for all classes before
    the first caller is collected — collection order must not matter."""
    for item in info.node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.func_nodes[item.name] = item
            spec = _parse_decorator(item)
            if spec is not None:
                info.methods[item.name] = spec


def _collect_class(cls: ast.ClassDef, rel_path: str, registry: SpecRegistry) -> ClassInfo:
    info = registry.classes[cls.name]
    init = info.func_nodes.get("__init__")
    if init is None:
        return info
    # __init__ locals start as their own symbols (ctor int params).
    env: dict = {a.arg: Dim.sym(a.arg) for a in init.args.args[1:]}
    for stmt in init.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        value = stmt.value
        # local rebinding, e.g. ``ff_dim = ff_dim or 4 * dim``
        if isinstance(target, ast.Name):
            dim = _dim_from_ast(value, env)
            if dim is not None:
                env[target.id] = dim
            # unparseable (BoolOp default fill-in): keep the symbol
            continue
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        attr = target.attr
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            leaf = callee.rsplit(".", 1)[-1] if callee else None
            if leaf in _PARAM_FACTORIES:
                info.attrs[attr] = AttrInfo("param", shape=_param_shape(value, env))
                continue
            if leaf == "ModuleList" and value.args:
                elem = value.args[0]
                inner_call = None
                if isinstance(elem, (ast.List, ast.ListComp)):
                    candidates = (
                        [elem.elt] if isinstance(elem, ast.ListComp) else elem.elts
                    )
                    for candidate in candidates:
                        if isinstance(candidate, ast.Call):
                            inner_call = candidate
                            break
                if inner_call is not None:
                    inner_name = _dotted(inner_call.func)
                    inner_leaf = inner_name.rsplit(".", 1)[-1] if inner_name else None
                    inner_info = registry.class_for(inner_leaf)
                    info.attrs[attr] = AttrInfo(
                        "module_list",
                        class_name=inner_leaf,
                        bindings=_ctor_bindings(inner_info, inner_call, env)
                        if inner_info
                        else (),
                    )
                    continue
                info.attrs[attr] = AttrInfo("module_list")
                continue
            callee_info = registry.class_for(leaf)
            if callee_info is not None or (leaf and leaf[:1].isupper()):
                info.attrs[attr] = AttrInfo(
                    "module",
                    class_name=leaf,
                    bindings=_ctor_bindings(callee_info, value, env)
                    if callee_info
                    else (),
                )
                continue
            info.attrs[attr] = AttrInfo("other")
            continue
        dim = _ground(_dim_from_ast(value, env), env)
        if dim is not None:
            info.attrs[attr] = AttrInfo("scalar", dim=dim)
            # derived-dim equation, e.g. head_dim = dim // num_heads
            if not dim.is_const and dim != Dim.sym(attr):
                info.equations[attr] = dim
        else:
            info.attrs[attr] = AttrInfo("other")
    return info


def decorated_function_names(tree: ast.AST) -> set:
    """Names of the tree's top-level ``@shape_spec``-decorated functions."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _parse_decorator(node) is not None
    }


def collect_registry(modules, context: SpecRegistry | None = None) -> SpecRegistry:
    """Build a :class:`SpecRegistry` from parsed source modules.

    ``context`` pre-seeds the registry (e.g. with the on-disk library)
    so ctor calls into classes defined elsewhere still resolve their
    parameter bindings; ``modules``' own definitions override it.
    """
    registry = SpecRegistry()
    if context is not None:
        registry.classes.update(context.classes)
        registry.functions.update(context.functions)
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(node.name, module.rel_path, node)
                registry.classes[node.name] = info
                _index_class_functions(info)
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                _collect_class(node, module.rel_path, registry)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = _parse_decorator(node)
                if spec is not None:
                    registry.functions[node.name] = spec
    return registry


# ---------------------------------------------------------------------------
# Cross-file library loading (so core/ files see nn/ specs)
# ---------------------------------------------------------------------------
_LIBRARY_CACHE: dict[str, SpecRegistry] = {}
_SPEC_DIRS = ("nn", "core")


def library_registry(rel_path: str) -> SpecRegistry | None:
    """Registry over the whole ``repro`` package owning ``rel_path``.

    Works only when the analyzed file actually exists on disk (the CLI
    and the repo-sweep tests); fixture sources with synthetic paths get
    a self-contained per-module registry instead.
    """
    from .linter import SourceModule

    parts = Path(rel_path).parts
    if "repro" not in parts or not Path(rel_path).exists():
        return None
    package = Path(*parts[: parts.index("repro") + 1])
    key = str(package.resolve())
    cached = _LIBRARY_CACHE.get(key)
    if cached is not None:
        return cached
    modules = []
    for sub in _SPEC_DIRS:
        directory = package / sub
        if directory.is_dir():
            for path in sorted(directory.glob("*.py")):
                try:
                    modules.append(
                        SourceModule(path.read_text(), path.as_posix())
                    )
                except SyntaxError:
                    continue
    registry = collect_registry(modules)
    _LIBRARY_CACHE[key] = registry
    return registry


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Problem:
    kind: str  # "mismatch" | "broadcast" | "dtype"
    lineno: int
    symbol: str  # Class.method
    message: str


# ---------------------------------------------------------------------------
# Abstract interpreter
# ---------------------------------------------------------------------------
_ELEMENTWISE_METHODS = frozenset(
    {"relu", "sigmoid", "tanh", "exp", "log", "abs", "clip", "copy"}
)
_REDUCTIONS = frozenset({"sum", "mean", "max", "min"})
_SHAPE_PRESERVING_FUNCS = frozenset(
    {
        "softmax",
        "log_softmax",
        "relu",
        "sigmoid",
        "tanh",
        "gelu",
        "scale",
        "operand",
        "exp",
        "sqrt",
        "ascontiguousarray",
        "asarray",
        "abs",
    }
)


class _Interpreter:
    """Abstractly executes one decorated method body."""

    def __init__(self, registry: SpecRegistry, cls: ClassInfo, spec: MethodSpec):
        self.registry = registry
        self.cls = cls
        self.spec = spec
        self.problems: list[Problem] = []
        self.symbol = f"{cls.name}.{spec.name}" if cls is not None else spec.name
        self.env: dict = {}
        for arg in spec.arg_names():
            declared = spec.inputs.get(arg)
            if declared is not None:
                self.env[arg] = declared
            else:
                # undeclared args are scalars named after themselves —
                # int dims like `length` flow into zeros()/reshape();
                # anything used as a tensor degrades to ANY at the op
                self.env[arg] = Scalar(Dim.sym(arg), "any")

    # -- problem helpers ----------------------------------------------------
    def problem(self, kind: str, node: ast.AST, message: str) -> None:
        self.problems.append(
            Problem(kind, getattr(node, "lineno", 1), self.symbol, message)
        )

    # -- class-space substitution -------------------------------------------
    def _class_subst(self, dims: tuple) -> tuple:
        """Apply the class's derived-dim equations (head_dim -> dim/heads)."""
        if self.cls is None or not self.cls.equations:
            return dims
        return tuple(
            d if d is STAR else d.subst(self.cls.equations) for d in dims
        )

    # -- entry --------------------------------------------------------------
    def run(self) -> list[Problem]:
        self._exec_body(self.spec.node.body, self.env)
        return self.problems

    # -- statements ----------------------------------------------------------
    def _exec_body(self, body, env) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt, env) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            value = self.eval(stmt.value, env)
            self._bind(stmt.targets[0], value, env)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, ANY)
                env[stmt.target.id] = self._binop(
                    current, self.eval(stmt.value, env), stmt
                )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_return(stmt, self.eval(stmt.value, env))
        elif isinstance(stmt, ast.If):
            before = dict(env)
            self._exec_body(stmt.body, env)
            after_body = dict(env)
            env.clear()
            env.update(before)
            self._exec_body(stmt.orelse, env)
            for key, value in after_body.items():
                env[key] = _join(env.get(key), value)
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self._bind_loop_target(stmt, env)
            before = dict(env)
            self._exec_body(stmt.body, env)
            for key in list(env):
                if key in before and env[key] is not before[key]:
                    env[key] = _join(before[key], env[key])
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.With):
            self._exec_body(stmt.body, env)
        # raise/assert/pass/try: nothing shape-relevant in the idiom subset

    def _bind(self, target, value, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Tuple):
            items = None
            if isinstance(value, TupleVal):
                items = value.items
            elif isinstance(value, ShapeVal) and not value.tensor.has_star:
                items = tuple(Scalar(d) for d in value.tensor.dims)
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    if items is not None and index < len(items):
                        env[element.id] = items[index]
                    else:
                        env[element.id] = ANY

    def _bind_loop_target(self, stmt: ast.For, env) -> None:
        iterable = self.eval(stmt.iter, env)
        target = stmt.target
        if isinstance(iterable, ModuleRef):  # for layer in self.layers
            self._bind(target, iterable, env)
        elif isinstance(iterable, TupleVal) and isinstance(target, ast.Tuple):
            # for i, layer in enumerate(self.layers)
            self._bind(target, iterable, env)
        elif isinstance(iterable, ListVal):
            self._bind(target, iterable.elem if iterable.elem is not None else ANY, env)
        else:
            self._bind(target, ANY, env)

    # -- return check --------------------------------------------------------
    def _check_return(self, node, value) -> None:
        declared = self.spec.out
        if declared is None or value is ANY:
            return
        if isinstance(declared, TupleVal):
            if isinstance(value, TupleVal) and len(value.items) == len(declared.items):
                for want, got in zip(declared.items, value.items):
                    self._compare_out(node, want, got)
            return
        self._compare_out(node, declared, value)

    def _compare_out(self, node, declared, value) -> None:
        if not isinstance(declared, SymTensor) or not isinstance(value, SymTensor):
            return
        if declared.has_star or value.has_star:
            # Right-align and compare the trailing dims both sides pin
            # down (a leading ``...`` matches any prefix, including an
            # empty one, so only the overlap is checkable).
            want_tail = declared.dims[1:] if declared.has_star else declared.dims
            got_tail = value.dims[1:] if value.has_star else value.dims
            if not value.has_star and len(got_tail) < len(want_tail):
                self.problem(
                    "mismatch",
                    node,
                    f"returns rank {len(got_tail)} value {value!r} but the "
                    f"declared output spec is {declared!r}",
                )
                return
            count = min(len(want_tail), len(got_tail))
            if not count:
                return
            want = self._class_subst(tuple(want_tail[-count:]))
            got = self._class_subst(tuple(got_tail[-count:]))
            for offset, (a, b) in enumerate(zip(want, got)):
                if provably_different(a, b):
                    self.problem(
                        "mismatch",
                        node,
                        f"output dim {offset - count} is {b!r} but the "
                        f"declared spec says {a!r}",
                    )
            return
        if len(declared.dims) != len(value.dims):
            self.problem(
                "mismatch",
                node,
                f"returns rank {len(value.dims)} value {value!r} but the "
                f"declared output spec is {declared!r}",
            )
            return
        want = self._class_subst(declared.dims)
        got = self._class_subst(value.dims)
        for axis, (a, b) in enumerate(zip(want, got)):
            if provably_different(a, b):
                self.problem(
                    "mismatch",
                    node,
                    f"output dim {axis} is {b!r} but the declared spec "
                    f"says {a!r}",
                )
        if value.dtype not in ("any", declared.dtype):
            self.problem(
                "dtype",
                node,
                f"returns abstract dtype {value.dtype} but the declared "
                f"output dtype is {declared.dtype}",
            )

    # -- expression evaluation -----------------------------------------------
    def eval(self, node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id, ANY)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Scalar(None, "bool")
            if isinstance(node.value, int):
                return Scalar(Dim.const(node.value), "int64")
            if isinstance(node.value, float):
                return Scalar(None, CANONICAL_DTYPE)
            return ANY
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop(
                self.eval(node.left, env), self.eval(node.right, env), node
            )
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if (
                isinstance(node.op, ast.USub)
                and isinstance(operand, Scalar)
                and operand.dim is not None
            ):
                return Scalar(Dim.const(0) - operand.dim, operand.dtype)
            return operand
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Tuple):
            return TupleVal(tuple(self.eval(e, env) for e in node.elts))
        if isinstance(node, ast.List):
            items = [self.eval(e, env) for e in node.elts]
            elem = items[0] if items else None
            for item in items[1:]:
                elem = _join(elem, item)
            return ListVal(elem)
        if isinstance(node, ast.IfExp):
            return _join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return Scalar(None, "bool")
        return ANY

    # -- attributes ----------------------------------------------------------
    def _eval_attribute(self, node: ast.Attribute, env):
        base = self.eval(node.value, env)
        attr = node.attr
        if attr == "shape" and isinstance(base, SymTensor):
            return ShapeVal(base)
        if attr == "data":
            return base  # Tensor.data: same abstract value
        if isinstance(base, ModuleRef):
            return self._module_attr(base, attr)
        if isinstance(node.value, ast.Name) and node.value.id == "self" and self.cls:
            info = self.cls.attrs.get(attr)
            if info is None:
                return ANY
            if info.kind == "param":
                if info.shape is None:
                    return ANY
                return SymTensor(self._class_subst(info.shape), CANONICAL_DTYPE)
            if info.kind == "scalar":
                return Scalar(info.dim)
            if info.kind in ("module", "module_list"):
                return ModuleRef(info.class_name, info.bindings, attr)
        return ANY

    def _module_attr(self, ref: ModuleRef, attr: str):
        """``self.k_proj.weight`` -> the sub-module's param in caller space."""
        info = self.registry.class_for(ref.class_name)
        if info is None:
            return ANY
        sub = info.attrs.get(attr)
        mapping = dict(ref.bindings)
        if sub is not None and sub.kind == "param" and sub.shape is not None:
            dims = tuple(
                d if d is STAR else d.subst(info.equations).subst(mapping)
                for d in sub.shape
            )
            return SymTensor(dims, CANONICAL_DTYPE)
        if sub is not None and sub.kind in ("module", "module_list"):
            inner = tuple(
                (sym, dim.subst(mapping)) for sym, dim in sub.bindings
            )
            return ModuleRef(sub.class_name, inner, attr)
        return ANY

    # -- calls ---------------------------------------------------------------
    def _eval_call(self, node: ast.Call, env):
        func = node.func
        args = [self.eval(a, env) for a in node.args]
        kwargs = {k.arg: self.eval(k.value, env) for k in node.keywords if k.arg}

        if isinstance(func, ast.Attribute):
            base = self.eval(func.value, env)
            method = func.attr
            if isinstance(base, ModuleRef):
                return self._apply_module(node, base, method, args, kwargs)
            if isinstance(base, SymTensor):
                return self._tensor_method(node, base, method, args, kwargs)
            if isinstance(base, ListVal) and method == "append":
                if args:
                    base.elem = args[0] if base.elem is None else _join(base.elem, args[0])
                return ANY
            # direct sub-module application: self.q_proj(query)
            callee = self._eval_attribute(func, env)
            if isinstance(callee, ModuleRef):
                return self._apply_module(node, callee, "forward", args, kwargs)
            # dotted library calls: np.X / kernels.X / functional.X / F.X
            name = _dotted(func)
            if name is not None:
                return self._library_call(node, name.rsplit(".", 1)[-1], args, kwargs)
            return ANY

        if isinstance(func, ast.Name):
            leaf = func.id
            # direct submodule call: layer(x) with layer a ModuleRef
            bound = env.get(leaf)
            if isinstance(bound, ModuleRef):
                return self._apply_module(node, bound, "forward", args, kwargs)
            if leaf == "enumerate" and args and isinstance(args[0], ModuleRef):
                return TupleVal((Scalar(None), args[0]))
            if leaf in ("Tensor", "Parameter"):
                return args[0] if args else ANY
            if leaf == "len":
                return Scalar(None)
            return self._library_call(node, leaf, args, kwargs)
        return ANY

    def _apply_module(self, node, ref: ModuleRef, method: str, args, kwargs):
        if method in ("__call__",):
            method = "forward"
        info = self.registry.class_for(ref.class_name)
        if info is None:
            return ANY
        spec = info.methods.get(method)
        if spec is None:
            return ANY
        return self._apply_spec(node, info, ref, spec, args, kwargs)

    def _apply_spec(self, node, info: ClassInfo, ref: ModuleRef, spec, args, kwargs):
        """Unify actual args against a callee spec; produce the output."""
        mapping = dict(ref.bindings)
        # resolve callee derived dims (head_dim = dim/num_heads) first
        equations = {
            sym: dim.subst(mapping) for sym, dim in info.equations.items()
        }
        mapping.update(equations)
        arg_names = spec.arg_names()
        actuals = dict(zip(arg_names, args))
        actuals.update({k: v for k, v in kwargs.items() if k in arg_names})
        bindings: dict[str, Dim] = {}
        # int-valued args (lengths, dims) bind by name into callee space
        for arg_name, actual in actuals.items():
            if (
                arg_name not in spec.inputs
                and isinstance(actual, Scalar)
                and actual.dim is not None
            ):
                bindings[arg_name] = actual.dim
        first_actual: SymTensor | None = None
        lead: tuple | None = None  # actual leading dims behind a spec's `...`
        for arg_name, declared in spec.inputs.items():
            actual = actuals.get(arg_name)
            if actual is None or actual is ANY:
                continue
            if isinstance(declared, SymTensor) and isinstance(actual, SymTensor):
                if first_actual is None:
                    first_actual = actual
                if declared.has_star and not actual.has_star and lead is None:
                    tail = len(declared.dims) - 1
                    if len(actual.dims) >= tail:
                        lead = actual.dims[: len(actual.dims) - tail]
                self._unify(node, info, declared, actual, mapping, bindings, arg_name)
                if (
                    declared.dtype != "any"
                    and actual.dtype not in ("any", declared.dtype)
                ):
                    self.problem(
                        "dtype",
                        node,
                        f"passes abstract dtype {actual.dtype} for "
                        f"{info.name}.{spec.name}({arg_name}: {declared.dtype})",
                    )
        if spec.out is None:
            return ANY
        full = dict(mapping)
        full.update(bindings)

        def out_tensor(declared: SymTensor) -> SymTensor:
            if declared.dims == (STAR,) and first_actual is not None:
                # "(...,)" out + "(...,)" in: shape-preserving passthrough
                return first_actual
            dims = []
            for dim in declared.dims:
                if dim is STAR:
                    # splice the caller's actual leading dims back in
                    dims.extend(lead if lead is not None else (STAR,))
                    continue
                # a callee symbol with no caller-space binding survives
                # substitution literally — it must not leak into the
                # caller's namespace, so it degrades to a placeholder
                survivors = dim.free_symbols() - set(full)
                if any(not s.startswith("?") for s in survivors):
                    dims.append(fresh_dim("out"))
                    continue
                dims.append(dim.subst(full))
            return SymTensor(tuple(dims), declared.dtype)

        if isinstance(spec.out, TupleVal):
            return TupleVal(
                tuple(
                    out_tensor(i) if isinstance(i, SymTensor) else ANY
                    for i in spec.out.items
                )
            )
        if isinstance(spec.out, SymTensor):
            return out_tensor(spec.out)
        return ANY

    def _unify(self, node, info, declared: SymTensor, actual: SymTensor, mapping, bindings, arg_name):
        dd, ad = list(declared.dims), list(actual.dims)
        if dd and dd[0] is STAR:
            dd = dd[1:]
            ad = ad[-len(dd):] if len(dd) and len(ad) >= len(dd) else ad
            if actual.has_star and ad and ad[0] is STAR:
                ad = ad[1:]
        elif actual.has_star:
            ad = ad[1:]
            dd = dd[-len(ad):] if len(ad) and len(dd) >= len(ad) else dd
        if len(dd) != len(ad):
            if not (declared.has_star or actual.has_star):
                self.problem(
                    "mismatch",
                    node,
                    f"passes rank-{len(actual.dims)} value {actual!r} for "
                    f"{info.name} input `{arg_name}` declared {declared!r}",
                )
            return
        for want, got in zip(dd, ad):
            if want is STAR or got is STAR:
                continue
            # callee-space symbols not yet bound (a bound one may resolve
            # to a same-named caller symbol; that is not "free")
            free = [
                s
                for s in want.free_symbols()
                if s not in mapping and s not in bindings and not s.startswith("?")
            ]
            resolved = want.subst(mapping).subst(bindings)
            if resolved == got:
                continue
            if len(free) == 1 and want == Dim.sym(free[0]):
                bindings[free[0]] = got
                continue
            if free:
                continue  # partially free composite dim: don't guess
            if provably_different(resolved, got):
                self.problem(
                    "mismatch",
                    node,
                    f"passes {got!r} where {info.name} input `{arg_name}` "
                    f"requires {resolved!r}",
                )

    # -- tensor methods -------------------------------------------------------
    def _tensor_method(self, node, base: SymTensor, method: str, args, kwargs):
        if method in _ELEMENTWISE_METHODS:
            return base
        if method == "astype":
            return SymTensor(base.dims, _dtype_of_node(node.args[0]) if node.args else "any")
        if method in _REDUCTIONS:
            axis = kwargs.get("axis", args[0] if args else None)
            keep_true = False
            for keyword in node.keywords:
                if keyword.arg == "keepdims" and isinstance(keyword.value, ast.Constant):
                    keep_true = bool(keyword.value.value)
            if base.has_star:
                if not keep_true:
                    return ANY
                dims = list(base.dims)
                if (
                    dims[-1] is not STAR
                    and isinstance(axis, Scalar)
                    and axis.dim is not None
                    and axis.dim.const_value == -1
                ):
                    dims[-1] = Dim.const(1)
                return SymTensor(tuple(dims), base.dtype)
            index = _axis_index(axis, len(base.dims))
            if index is None:
                return ANY
            dims = list(base.dims)
            if keep_true:
                dims[index] = Dim.const(1)
            else:
                del dims[index]
            return SymTensor(tuple(dims), base.dtype)
        if method == "reshape":
            return self._reshape(node, base, args)
        if method in ("transpose", "permute"):
            return self._transpose(base, node, args)
        if method == "swapaxes":
            return self._swapaxes(base, args)
        if method == "matmul":
            return self._matmul(node, base, args[0] if args else ANY)
        if method == "setflags":
            return ANY
        return ANY

    def _reshape(self, node, base: SymTensor, args):
        if len(args) == 1 and isinstance(args[0], TupleVal):
            args = list(args[0].items)
        dims = []
        minus_one = 0
        for value in args:
            if isinstance(value, Scalar) and value.dim is not None:
                if value.dim.const_value == -1:
                    minus_one += 1
                    dims.append(None)
                else:
                    dims.append(value.dim)
            else:
                dims.append(fresh_dim("r"))
        if base.has_star or any(d is STAR for d in base.dims):
            return SymTensor(
                tuple(fresh_dim("r") if d is None else d for d in dims), base.dtype
            )
        total = Dim.const(1)
        for dim in base.dims:
            total = total * dim
        known = Dim.const(1)
        for dim in dims:
            if dim is not None:
                known = known * dim
        if minus_one == 1:
            inferred = total / known
            dims = [inferred if d is None else d for d in dims]
            if any(d is None or d is ANY for d in dims):
                dims = [fresh_dim("r") if d is None else d for d in dims]
        elif minus_one == 0:
            want = self._class_subst((known,))[0]
            have = self._class_subst((total,))[0]
            if provably_different(want, have):
                self.problem(
                    "mismatch",
                    node,
                    f"reshape to total size {want!r} from a value of total "
                    f"size {have!r}",
                )
        cleaned = tuple(d if isinstance(d, Dim) else fresh_dim("r") for d in dims)
        return SymTensor(cleaned, base.dtype)

    def _transpose(self, base: SymTensor, node, args):
        if base.has_star:
            return ANY
        if len(args) == 1 and isinstance(args[0], TupleVal):
            args = list(args[0].items)
        order = []
        for value in args:
            if isinstance(value, Scalar) and value.dim is not None and value.dim.is_const:
                order.append(int(value.dim.const_value))
            else:
                return ANY
        if not order:
            return SymTensor(tuple(reversed(base.dims)), base.dtype)
        if sorted(order) != list(range(len(base.dims))):
            return ANY
        return SymTensor(tuple(base.dims[i] for i in order), base.dtype)

    def _swapaxes(self, base: SymTensor, args):
        if base.has_star or len(args) != 2:
            return ANY
        axes = []
        for value in args:
            if isinstance(value, Scalar) and value.dim is not None and value.dim.is_const:
                axes.append(int(value.dim.const_value) % len(base.dims))
            else:
                return ANY
        dims = list(base.dims)
        dims[axes[0]], dims[axes[1]] = dims[axes[1]], dims[axes[0]]
        return SymTensor(tuple(dims), base.dtype)

    def _matmul(self, node, a, b):
        if not isinstance(a, SymTensor) or not isinstance(b, SymTensor):
            return ANY
        if a.has_star or b.has_star:
            # (..., k) @ (k, n): check the contraction when both ends known
            if len(a.dims) >= 1 and len(b.dims) >= 2:
                inner_a = a.dims[-1]
                inner_b = b.dims[-2]
                if inner_a is not STAR and inner_b is not STAR:
                    self._check_inner(node, inner_a, inner_b)
            if len(b.dims) >= 1 and b.dims[-1] is not STAR:
                lead = a.dims[:-1] if a.dims else (STAR,)
                return SymTensor(tuple(lead) + (b.dims[-1],), promote(a.dtype, b.dtype))
            return ANY
        if len(a.dims) < 1 or len(b.dims) < 1:
            return ANY
        if len(b.dims) == 1:
            self._check_inner(node, a.dims[-1], b.dims[0])
            return SymTensor(a.dims[:-1], promote(a.dtype, b.dtype))
        self._check_inner(node, a.dims[-1], b.dims[-2])
        batch = a.dims[:-2] if len(a.dims) > len(b.dims) else b.dims[:-2]
        if len(a.dims) == len(b.dims):
            batch = a.dims[:-2]
        lead = a.dims[-2:-1] if len(a.dims) >= 2 else ()
        return SymTensor(
            tuple(batch) + tuple(lead) + (b.dims[-1],), promote(a.dtype, b.dtype)
        )

    def _check_inner(self, node, a: Dim, b: Dim) -> None:
        want = self._class_subst((a,))[0]
        got = self._class_subst((b,))[0]
        if provably_different(want, got):
            self.problem(
                "mismatch",
                node,
                f"matmul contraction of {want!r} against {got!r}",
            )

    # -- library calls --------------------------------------------------------
    def _library_call(self, node, leaf: str, args, kwargs):
        # declared specs win over the built-in fallback table
        if leaf in self.registry.functions:
            spec = self.registry.functions[leaf]
            info = ClassInfo(leaf, "", None)
            return self._apply_spec(node, info, ModuleRef(None, ()), spec, args, kwargs)
        if self.cls is not None and leaf in self.cls.methods:
            # self._helper(...) resolved by name (staticmethod-style call)
            spec = self.cls.methods[leaf]
            return self._apply_spec(
                node, self.cls, ModuleRef(self.cls.name, ()), spec, args, kwargs
            )
        first = args[0] if args else None
        if leaf in _SHAPE_PRESERVING_FUNCS:
            return first if isinstance(first, SymTensor) else ANY
        if leaf == "masked_fill":
            return first if isinstance(first, SymTensor) else ANY
        if leaf == "where":
            for value in args:
                if isinstance(value, SymTensor):
                    return value
            return ANY
        if leaf in ("matmul",):
            if len(args) >= 2:
                return self._matmul(node, args[0], args[1])
            return ANY
        if leaf == "linear":
            # linear(x, W, b): (..., in) @ (in, out) + (out,)
            if len(args) >= 2 and isinstance(args[0], SymTensor) and isinstance(args[1], SymTensor):
                return self._matmul(node, args[0], args[1])
            return ANY
        if leaf == "layer_norm":
            return first if isinstance(first, SymTensor) else ANY
        if leaf in ("concat", "concatenate"):
            return self._concat(args, kwargs, stacked=False)
        if leaf == "stack":
            return self._concat(args, kwargs, stacked=True)
        if leaf in ("zeros", "ones", "empty", "full"):
            shape = first
            dtype = "any"
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype = _dtype_of_node(keyword.value)
            if dtype == "any":
                dtype = CANONICAL_DTYPE if leaf != "full" else "any"
            if isinstance(shape, TupleVal):
                dims = []
                for item in shape.items:
                    if isinstance(item, Scalar) and item.dim is not None:
                        dims.append(item.dim)
                    else:
                        dims.append(fresh_dim("z"))
                return SymTensor(tuple(dims), dtype)
            if isinstance(shape, Scalar) and shape.dim is not None:
                return SymTensor((shape.dim,), dtype)
            return ANY
        if leaf == "arange":
            return SymTensor((fresh_dim("n"),), "int64")
        if leaf == "range":
            return ListVal(Scalar(None))
        if leaf == "causal_mask":
            if isinstance(first, Scalar) and first.dim is not None:
                return SymTensor((first.dim, first.dim), "bool")
            length = fresh_dim("L")
            return SymTensor((length, length), "bool")
        if leaf == "broadcast_to":
            if len(args) >= 2 and isinstance(args[1], TupleVal):
                dims = tuple(
                    i.dim if isinstance(i, Scalar) and i.dim is not None else fresh_dim("b")
                    for i in args[1].items
                )
                dtype = first.dtype if isinstance(first, SymTensor) else "any"
                return SymTensor(dims, dtype)
            return ANY
        if leaf == "repeat_batch":
            if (
                isinstance(first, SymTensor)
                and not first.has_star
                and len(args) >= 2
                and isinstance(args[1], Scalar)
                and args[1].dim is not None
            ):
                return SymTensor((args[1].dim,) + first.dims[1:], first.dtype)
            return ANY
        return ANY

    def _concat(self, args, kwargs, stacked: bool):
        seq = args[0] if args else None
        axis_val = kwargs.get("axis", args[1] if len(args) > 1 else None)
        axis = None
        if isinstance(axis_val, Scalar) and axis_val.dim is not None and axis_val.dim.is_const:
            axis = int(axis_val.dim.const_value)
        elem = None
        if isinstance(seq, ListVal):
            elem = seq.elem if isinstance(seq.elem, SymTensor) else None
        if elem is None or elem.has_star or axis is None:
            return ANY
        dims = list(elem.dims)
        if stacked:
            if not 0 <= axis <= len(dims):
                return ANY
            dims.insert(axis, fresh_dim("s"))
        else:
            if not 0 <= axis < len(dims):
                return ANY
            dims[axis] = fresh_dim("c")
        return SymTensor(tuple(dims), elem.dtype)

    # -- subscripts -----------------------------------------------------------
    def _eval_subscript(self, node: ast.Subscript, env):
        base = self.eval(node.value, env)
        if isinstance(base, ShapeVal):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, int):
                dims = base.tensor.dims
                if base.tensor.has_star:
                    return Scalar(fresh_dim("d"))
                if -len(dims) <= index.value < len(dims):
                    return Scalar(dims[index.value])
            return Scalar(fresh_dim("d"))
        if isinstance(base, TupleVal):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, int):
                if -len(base.items) <= index.value < len(base.items):
                    return base.items[index.value]
            return ANY
        if isinstance(base, ListVal):
            return base.elem
        if not isinstance(base, SymTensor) or base.has_star:
            return ANY
        index = node.slice
        elements = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        dims = list(base.dims)
        out: list = []
        axis = 0
        for element in elements:
            if axis >= len(dims) and not isinstance(element, ast.Constant):
                return ANY
            if isinstance(element, ast.Slice):
                if element.lower is None and element.upper is None:
                    out.append(dims[axis])
                else:
                    lower = (
                        self._scalar_dim(element.lower, env)
                        if element.lower is not None
                        else Dim.const(0)
                    )
                    upper = self._scalar_dim(element.upper, env)
                    if lower is not None and upper is not None:
                        out.append(upper - lower)
                    else:
                        out.append(fresh_dim("sl"))
                axis += 1
            elif isinstance(element, ast.Constant) and element.value is None:
                out.append(Dim.const(1))  # np.newaxis
            elif isinstance(element, ast.Constant) and isinstance(element.value, int):
                axis += 1  # integer index drops the dim
            elif isinstance(element, ast.UnaryOp) or isinstance(element, ast.Name):
                value = self.eval(element, env)
                if isinstance(value, Scalar):
                    axis += 1  # scalar index drops the dim
                else:
                    return ANY  # advanced indexing
            else:
                return ANY
        out.extend(dims[axis:])
        return SymTensor(tuple(out), base.dtype)

    def _scalar_dim(self, node, env) -> Dim | None:
        value = self.eval(node, env)
        if isinstance(value, Scalar):
            return value.dim
        return None

    # -- binary ops ------------------------------------------------------------
    def _binop(self, left, right, node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if isinstance(left, SymTensor) and isinstance(right, SymTensor):
                return self._matmul(node, left, right)
            return ANY
        if isinstance(left, Scalar) and isinstance(right, Scalar):
            if left.dim is not None and right.dim is not None and isinstance(node, ast.BinOp):
                op = node.op
                if isinstance(op, ast.Add):
                    return Scalar(left.dim + right.dim)
                if isinstance(op, ast.Sub):
                    return Scalar(left.dim - right.dim)
                if isinstance(op, ast.Mult):
                    return Scalar(left.dim * right.dim)
                if isinstance(op, (ast.Div, ast.FloorDiv)):
                    return Scalar(left.dim / right.dim)
            return Scalar(None, promote(left.dtype, right.dtype))
        if isinstance(left, SymTensor) and isinstance(right, Scalar):
            return SymTensor(left.dims, promote(left.dtype, right.dtype))
        if isinstance(left, Scalar) and isinstance(right, SymTensor):
            return SymTensor(right.dims, promote(left.dtype, right.dtype))
        if isinstance(left, SymTensor) and isinstance(right, SymTensor):
            return self._broadcast(left, right, node)
        if isinstance(left, SymTensor):
            return SymTensor(left.dims, "any")
        if isinstance(right, SymTensor):
            return SymTensor(right.dims, "any")
        return ANY

    def _broadcast(self, a: SymTensor, b: SymTensor, node) -> SymTensor:
        dtype = promote(a.dtype, b.dtype)
        if a.has_star or b.has_star:
            longer = a if len(a.dims) >= len(b.dims) else b
            return SymTensor(longer.dims, dtype)
        ra, rb = len(a.dims), len(b.dims)
        out = []
        for offset in range(1, max(ra, rb) + 1):
            da = a.dims[-offset] if offset <= ra else None
            db = b.dims[-offset] if offset <= rb else None
            if da is None:
                out.append(db)
            elif db is None:
                out.append(da)
            elif da == db:
                out.append(da)
            elif da.is_one or db.is_one:
                stretched = db if da.is_one else da
                # rank-equal 1-stretching of a *declared* size-1 dim is the
                # silent-broadcast class; trailing vector adds (bias, gamma)
                # and keepdims reductions are idiomatic and not flagged.
                if ra == rb and self._declared_one(da if da.is_one else db, node):
                    self.problem(
                        "broadcast",
                        node,
                        f"implicit broadcast stretches declared size-1 dim "
                        f"against {stretched!r} in a rank-{ra} elementwise op",
                    )
                out.append(stretched)
            elif provably_different(da, db):
                self.problem(
                    "mismatch",
                    node,
                    f"elementwise op on incompatible dims {da!r} vs {db!r}",
                )
                out.append(da)
            else:
                out.append(da if not da.is_fresh else db)
        out.reverse()
        return SymTensor(tuple(out), dtype)

    def _declared_one(self, dim: Dim, node) -> bool:
        """Was this size-1 dim declared in an input spec (vs computed)?

        Computed 1-dims (keepdims reductions, ``x[:, t:t+1]`` slices,
        ``[None]`` axes) are deliberate; a 1 in a *declared input spec*
        stretching inside the body is the suspicious case.
        """
        for declared in self.spec.inputs.values():
            if isinstance(declared, SymTensor) and any(
                isinstance(d, Dim) and d.is_one for d in declared.dims if d is not STAR
            ):
                return True
        return False


def _axis_index(axis, rank: int) -> int | None:
    """Concrete axis of a reduction, or None when unknown / full-reduce."""
    if not isinstance(axis, Scalar) or axis.dim is None:
        return None
    value = axis.dim.const_value
    if value is None:
        return None
    index = int(value)
    if -rank <= index < rank:
        return index % rank
    return None


def _join(a, b):
    """Least upper bound of two abstract values (ANY when they differ)."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, _Any) or isinstance(b, _Any):
        return ANY
    if isinstance(a, SymTensor) and isinstance(b, SymTensor):
        if a == b:
            return a
        if len(a.dims) == len(b.dims):
            dims = []
            for da, db in zip(a.dims, b.dims):
                if da is STAR or db is STAR:
                    if da is not db:
                        return ANY  # star vs pinned dim: cannot align
                    dims.append(STAR)
                else:
                    dims.append(da if da == db else fresh_dim("j"))
            return SymTensor(tuple(dims), promote(a.dtype, b.dtype))
        return ANY
    if isinstance(a, TupleVal) and isinstance(b, TupleVal) and len(a.items) == len(b.items):
        return TupleVal(tuple(_join(x, y) for x, y in zip(a.items, b.items)))
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        if a == b:
            return a
        return Scalar(None, promote(a.dtype, b.dtype))
    if a is b:
        return a
    return ANY


def interpret_class(registry: SpecRegistry, info: ClassInfo) -> list[Problem]:
    """Abstractly interpret every decorated method of one class."""
    problems: list[Problem] = []
    for spec in info.methods.values():
        problems.extend(_Interpreter(registry, info, spec).run())
    return problems


def interpret_function(registry: SpecRegistry, spec: MethodSpec) -> list[Problem]:
    return _Interpreter(registry, None, spec).run()


# ---------------------------------------------------------------------------
# Lexical dtype discipline
# ---------------------------------------------------------------------------
_DTYPE_NAMES = {
    "float64": "float64",
    "double": "float64",
    "float32": "float32",
    "single": "float32",
    "float16": "float16",
    "int64": "int64",
    "int32": "int32",
    "int_": "int64",
    "intp": "int64",
    "bool_": "bool",
    "bool": "bool",
}
_ALLOWED_CONCRETE = frozenset({"float64", "int64", "bool"})


def _dtype_of_node(node: ast.AST) -> str:
    name = _dotted(node)
    if name is not None:
        leaf = name.rsplit(".", 1)[-1]
        return _DTYPE_NAMES.get(leaf, "any")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_NAMES.get(node.value, "any")
    return "any"


def dtype_problems(tree: ast.AST) -> list[Problem]:
    """Lexical dtype-creep findings: any concrete dtype that is not in
    the canonical set {float64, int64, bool} — a stray ``np.float32``
    (or ``astype(np.float32)``) silently de-canonicalizes everything it
    touches via numpy promotion."""
    problems: list[Problem] = []

    def visit(node, symbol: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{symbol}.{node.name}" if symbol else node.name
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                visit(child, node.name)
            return
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype = _dtype_of_node(keyword.value)
                    if dtype != "any" and dtype not in _ALLOWED_CONCRETE:
                        problems.append(
                            Problem(
                                "dtype",
                                keyword.value.lineno,
                                symbol,
                                f"dtype={dtype} is outside the canonical set "
                                f"{{float64, int64, bool}} — numpy promotion "
                                f"will silently spread it",
                            )
                        )
            name = _dotted(node.func)
            if name is not None and name.rsplit(".", 1)[-1] == "astype" and node.args:
                dtype = _dtype_of_node(node.args[0])
                if dtype != "any" and dtype not in _ALLOWED_CONCRETE:
                    problems.append(
                        Problem(
                            "dtype",
                            node.lineno,
                            symbol,
                            f"astype({dtype}) leaves the canonical dtype set "
                            f"{{float64, int64, bool}}",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, symbol)

    for top in tree.body:
        visit(top, "")
    return problems
