"""Determinism rules: R001 randomness, R002 time/entropy, R003 ordering,
R008 float-reduction order.

These encode the seed and ordering discipline behind the repository's
bit-identity guarantees (any worker count, adaptive == one-shot, chaos
convergence, shard folding).  The runtime regression suite proves the
guarantees on the inputs it exercises; these rules prove the underlying
discipline on every code path.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Set

from repro.analysis.astutil import ImportMap, call_name, parent_map
from repro.analysis.registry import Finding, ModuleInfo, Rule, register_rule

__all__ = [
    "UnseededRandomness",
    "WallClockEntropy",
    "UnorderedIteration",
    "FloatReductionOrder",
]


def _matches(name: Optional[str], patterns: Sequence[str]) -> bool:
    """Whether canonical *name* matches any pattern (trailing ``.`` =
    prefix match, otherwise exact)."""
    if name is None:
        return False
    for pattern in patterns:
        if pattern.endswith("."):
            if name.startswith(pattern):
                return True
        elif name == pattern:
            return True
    return False


@register_rule
class UnseededRandomness(Rule):
    """R001: every random draw must trace back to a ``SeedSequence``.

    Flags the global numpy RNG (``np.random.<fn>()``), the stdlib
    ``random`` module, legacy ``RandomState``, and ``default_rng()``
    called with no argument (or an explicit ``None``) — anywhere except
    the sanctioned seam ``utils/rng.py``, whose job is exactly to fence
    ``None``-seeded generators behind an explicit opt-in.
    """

    id = "R001"
    name = "unseeded-randomness"
    severity = "error"
    description = (
        "no global/unseeded RNGs outside utils/rng.py — randomness must "
        "derive from a SeedSequence"
    )
    default_config = {
        # Modules allowed to construct unseeded generators.
        "allowed_modules": ["utils/rng.py"],
        # The global-state numpy RNG namespace; constructing from it is
        # fine only through these seedable entry points.
        "seedable": [
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "numpy.random.SeedSequence",
            "numpy.random.PCG64",
            "numpy.random.Philox",
            "numpy.random.SFC64",
            "numpy.random.MT19937",
            "numpy.random.BitGenerator",
        ],
        "banned_modules": ["random"],
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if module.matches(self.config["allowed_modules"]):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        seedable = set(self.config["seedable"])
        banned_modules = set(self.config["banned_modules"])
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(self._check_import(module, node, banned_modules))
            if not isinstance(node, ast.Call):
                continue
            name = call_name(imports, node)
            if name is None:
                continue
            head = name.split(".")[0]
            if head in banned_modules:
                findings.append(
                    module.finding(
                        self, node,
                        f"stdlib `{name}` uses hidden global RNG state; "
                        "derive a Generator from a SeedSequence "
                        "(repro.utils.rng) instead",
                    )
                )
            elif name.startswith("numpy.random.") and name not in seedable:
                findings.append(
                    module.finding(
                        self, node,
                        f"`{name}` draws from the global numpy RNG; use a "
                        "Generator derived from a SeedSequence instead",
                    )
                )
            elif name in ("numpy.random.default_rng", "numpy.random.Generator"):
                if self._unseeded_call(node):
                    findings.append(
                        module.finding(
                            self, node,
                            f"`{name}` without a SeedSequence-derived "
                            "argument is OS-entropy seeded; thread a seed "
                            "through repro.utils.rng",
                        )
                    )
        return findings

    def _check_import(
        self, module: ModuleInfo, node: ast.AST, banned: Set[str]
    ) -> Iterable[Finding]:
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        for name in names:
            if name.split(".")[0] in banned:
                yield module.finding(
                    self, node,
                    f"import of `{name}`: the stdlib random module is "
                    "global-state RNG; use repro.utils.rng",
                )

    @staticmethod
    def _unseeded_call(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        first = node.args[0] if node.args else None
        if first is None:
            for kw in node.keywords:
                if kw.arg in ("seed", "bit_generator"):
                    first = kw.value
                    break
        return isinstance(first, ast.Constant) and first.value is None


@register_rule
class WallClockEntropy(Rule):
    """R002: no wall-clock or entropy sources on result-bearing paths.

    ``time.time``/``uuid4``/``os.urandom``-style sources inside the
    result-producing packages make reruns unreproducible and break
    checksum-verified shard dedup.  Interval timers (``monotonic``,
    ``perf_counter``) stay legal: they schedule and measure, but must
    never feed results — R001/R003 cover the values themselves.
    """

    id = "R002"
    name = "wall-clock-entropy"
    severity = "error"
    description = (
        "no wall-clock/entropy sources (time.time, uuid4, os.urandom, "
        "datetime.now) in kernels/, simulation/, study/, service/"
    )
    default_config = {
        "packages": ["kernels", "simulation", "study", "service"],
        "banned": [
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
            "uuid.uuid1",
            "uuid.uuid4",
            "os.urandom",
            "secrets.",
        ],
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.config["packages"]):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        banned = list(self.config["banned"])
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(imports, node)
            if _matches(name, banned):
                findings.append(
                    module.finding(
                        self, node,
                        f"`{name}` is a wall-clock/entropy source on a "
                        "result-bearing path; results must be a pure "
                        "function of the seed",
                    )
                )
        return findings


#: Expressions whose iteration order is hash/insertion dependent.
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_set_typed(node: ast.AST, imports: ImportMap) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_typed(node.left, imports) or _is_set_typed(
            node.right, imports
        )
    if isinstance(node, ast.Call):
        name = call_name(imports, node)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys",
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            # `.keys()` is the dict-order hazard named by the rule; the
            # set methods propagate set-ness through method chains.
            if node.func.attr == "keys":
                return not node.args and not node.keywords
            return True
    return False


#: Wrapping one of these restores a deterministic order (or collapses
#: the order away entirely).
_SANITIZERS = {"sorted", "len", "min", "max", "any", "all", "set", "frozenset"}


@register_rule
class UnorderedIteration(Rule):
    """R003: iteration order over sets/dict-keys must be sanitized.

    Iterating a ``set`` (or ``dict.keys()``) into an accumulator, an
    array constructor, or a scheduling loop makes the result depend on
    hash/insertion order — exactly the nondeterminism that breaks
    bit-identity across interpreters and hosts.  Wrapping the iterable
    in ``sorted(...)`` (or consuming it with an order-insensitive
    reducer like ``len``/``min``/``max``/``any``/``all``) is the fix
    and is recognized as clean.
    """

    id = "R003"
    name = "unordered-iteration"
    severity = "error"
    description = (
        "iteration over set()/dict.keys() feeding accumulation, array "
        "construction, or scheduling order — wrap in sorted(...)"
    )
    default_config = {
        # Order-sensitive consumers that materialize iteration order.
        "consumers": ["list", "tuple", "enumerate", "sum"],
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        parents = parent_map(module.tree)
        consumers = set(self.config["consumers"])
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_typed(node.iter, imports):
                    findings.append(
                        module.finding(
                            self, node.iter,
                            "for-loop over a set/dict.keys(): body effects "
                            "follow hash order; iterate sorted(...) instead",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if not any(
                    _is_set_typed(gen.iter, imports) for gen in node.generators
                ):
                    continue
                if self._sanitized(node, parents, imports):
                    continue
                findings.append(
                    module.finding(
                        self, node,
                        "comprehension over a set/dict.keys() materializes "
                        "hash order; iterate sorted(...) or wrap the "
                        "result in sorted(...)",
                    )
                )
            elif isinstance(node, ast.Call):
                name = call_name(imports, node)
                if name in consumers and node.args and _is_set_typed(
                    node.args[0], imports
                ):
                    findings.append(
                        module.finding(
                            self, node,
                            f"`{name}(...)` over a set/dict.keys() "
                            "materializes hash order; use sorted(...)",
                        )
                    )
        return findings

    @staticmethod
    def _sanitized(node: ast.AST, parents, imports: ImportMap) -> bool:
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call) and node in parent.args:
            name = call_name(imports, parent)
            if name in _SANITIZERS:
                return True
        return False


@register_rule
class FloatReductionOrder(Rule):
    """R008: float reductions in kernel code must use a fixed-order sum.

    Python's builtin ``sum`` folds left-to-right over whatever order
    the iterable yields; combined with float non-associativity, any
    order jitter changes bits.  Kernel code must reduce with
    ``np.sum``/``ndarray.sum`` (single fixed pairwise algorithm) or
    ``math.fsum`` — bit-identical results depend on it.
    """

    id = "R008"
    name = "float-reduction-order"
    severity = "error"
    description = (
        "builtin sum() in kernel code — use np.sum/ndarray.sum "
        "(pairwise) or math.fsum for order-stable float reduction"
    )
    default_config = {"packages": ["kernels"]}

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.config["packages"]):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(imports, node) == "sum":
                findings.append(
                    module.finding(
                        self, node,
                        "builtin sum() reduces in iteration order; kernel "
                        "reductions must be np.sum/ndarray.sum or "
                        "math.fsum to keep results bit-identical",
                    )
                )
        return findings
