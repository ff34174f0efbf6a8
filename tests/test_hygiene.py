"""Static checks on the library source, standing in for a linter: every
module-level import is used, no library or test function imports
inside its body (one named test-only exception),
every top-level private name (function, class or assignment) is
referenced somewhere in the library, every public function or method
is read by the library, exported or wrapped by the benchmark's tracer
(a method only through its own class, see ``_library_dead_public``),
no module imports another's private names, only ``scalars`` and
``linalg`` fold or write power-basis coordinates, and no library or test
statement keeps a name alive by assigning it to ``_``."""

import ast
import os
from fractions import Fraction

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src", "formalconn")
TRACING = os.path.join(TESTS, os.pardir, "bench", "tracing.py")

# Public names that only tests reach, kept on purpose, each with the
# reason it stays in the library.  Any other public name that only tests
# read is moved into tests/helpers.py or deleted; a name leaves this
# list when the library reads it again or it is gone.
ONLY_TESTS_REACH = {
    "moduli.py: coadjoint_fixes": "the paper's isotropy criterion (Bremer-Sage)",
    "moduli.py: in_toral_congruence": "the paper's isotropy criterion (Bremer-Sage)",
    "parahoric.py: ParahoricContext.varpi_power": "the README promises uniformizers",
    "series.py: LaurentScalar.coeff": "the README's windows: a coefficient past the window "
                                      "raises PrecisionError (the library reads coeff_or_zero)",
    "torus.py: ToralElement.coeff": "a toral coefficient past the window raises PrecisionError",
    "matrices.py: LaurentMatrix.tau": "the benchmark's gauges (bench/common.py) read it",
}

# Method names that several library classes define, or that builtin
# values carry too, so that a read through a value (``x.m``) cannot be
# told apart by class: such a read counts for every class defining the
# name.  Each name says which classes share it and why; a name leaves
# the list when only one class defines it again.
_RING = "linalg's two integer rings, _Integers and _CyclotomicIntegers, share one interface"
_SERIES = "LaurentScalar and LaurentMatrix share one series interface"
SHARED_METHOD_NAMES = {
    **dict.fromkeys(("combine", "const", "content", "convolve", "exact_div", "mul", "neg",
                     "scaled_sums"), _RING),
    **dict.fromkeys(("dot", "reciprocal"),
                    _RING + " (and GroundField, the Z[zeta_m] product and norm reciprocal "
                    "that _CyclotomicIntegers and Ext call)"),
    "add": _RING + " (and set.add)",
    "read": _RING + " (and IntMatrix.read)",
    "scalar": _RING + " (and LaurentMatrix.scalar)",
    **dict.fromkeys(("shift", "tau", "truncate"), _SERIES),
    "agrees": _SERIES + " (and ToralElement.agrees)",
    "is_zero": _SERIES + " (and ToralElement.is_zero and GradedEndo.is_zero)",
    "zero": _SERIES + " (and ToralElement.zero and GroundField.zero)",
    "inverse": "Ext, LaurentScalar, LaurentMatrix and WeylElement invert",
    "compose": "WeylElement and GradedEndo compose",
    "realization": "FormalType and ToralElement realize as matrices",
    "leading": "FormalType.leading() and RegularityReport.leading",
    "n": "connections, matrices, chains, strata, tori and global data have a rank n",
    "to_json": "every serializable value writes its parts with their to_json",
    "format": "StratumCharPoly.format and str.format",
}

# Attributes of builtin values: a class defining one of these names
# shares it with them.
BUILTIN_ATTRIBUTES = {name for kind in (str, bytes, list, dict, set, tuple, int, Fraction)
                      for name in dir(kind)}


def _modules(folder=SRC):
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                out[name] = ast.parse(fh.read(), filename=name)
    return out


def _names_used(nodes):
    """Identifiers read in the given nodes: names, attribute names and
    the names a from-import brings in."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used.update(alias.name for alias in sub.names)
    return used


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return {elt.value for elt in stmt.value.elts}
    return set()


def test_no_unused_module_imports():
    unused = []
    for name, tree in _modules().items():
        imports = [stmt for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
        rest = [stmt for stmt in tree.body if stmt not in imports]
        used = _names_used(rest) | _exported(tree)
        for stmt in imports:
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append("%s: %s" % (name, bound))
    assert not unused, "unused imports: %s" % ", ".join(unused)


# sympy is a test-only oracle and slow to import: only the factoring
# oracle that needs it imports it
LAZY_IMPORTS = {"test_polys.py: sympy_factor"}


def test_no_function_local_imports():
    local = []
    for folder in (SRC, TESTS):
        for name, tree in _modules(folder).items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    func = getattr(node, "name", "lambda")
                    if folder == SRC or "%s: %s" % (name, func) not in LAZY_IMPORTS:
                        local.extend("%s:%d in %s" % (name, sub.lineno, func)
                                     for sub in ast.walk(node)
                                     if isinstance(sub, (ast.Import, ast.ImportFrom)))
    assert not local, "imports inside functions: %s" % ", ".join(local)


def _defined_names(stmt):
    """The names a top-level statement defines: a def, a class or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def _unreferenced_private(kinds):
    """module: name for every private name that a top-level statement of
    one of ``kinds`` defines and no other top-level statement of the
    library reads; a reference from the statement's own body (recursion)
    does not count."""
    reads = [(name, stmt, _names_used([stmt]))
             for name, tree in _modules().items() for stmt in tree.body]
    out = []
    for name, stmt, _ in reads:
        if not isinstance(stmt, kinds):
            continue
        for defined in _defined_names(stmt):
            if defined.startswith("_") and not defined.startswith("__") and \
                    not any(defined in used for _, other, used in reads if other is not stmt):
                out.append("%s: %s" % (name, defined))
    return out


def test_private_functions_are_referenced():
    unreferenced = _unreferenced_private(ast.FunctionDef)
    assert not unreferenced, "unreferenced private functions: %s" % ", ".join(unreferenced)


def test_no_unreferenced_private_names():
    unreferenced = _unreferenced_private((ast.FunctionDef, ast.ClassDef, ast.Assign,
                                          ast.AnnAssign))
    assert not unreferenced, "unreferenced private names: %s" % ", ".join(unreferenced)


def _traced_names():
    """The names in the tracer's TARGETS ("function" or "Class.method"),
    read from bench/tracing.py without importing it."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read(), filename="tracing.py")
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            return {elt.elts[1].value for elt in stmt.value.elts}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _attribute_owners(modules):
    """name -> the classes that define a method, a slot or a self
    attribute of that name."""
    owners = {}
    for tree in modules.values():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            names = [sub.name for sub in cls.body if isinstance(sub, ast.FunctionDef)]
            names += [elt.value for sub in cls.body if isinstance(sub, ast.Assign)
                      and any(getattr(t, "id", None) == "__slots__" for t in sub.targets)
                      for elt in sub.value.elts]
            names += [node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and getattr(node.value, "id", "") == "self"]
            for name in names:
                owners.setdefault(name, set()).add(cls.name)
    return owners


def _library_dead_public():
    """module: [Class.]name for every public top-level function or method
    that no other statement of the library reads (a method's class body
    is split into its statements; an import in __init__.py does not
    count), that __all__ does not export and the tracer does not wrap.

    A function is read when another statement names it.  A method m of
    class C is read only through C: as ``C.m``, as ``self.m`` or
    ``cls.m`` in another statement of C, or as ``x.m`` on any other value
    when C alone defines m (no other class and no builtin value has an
    attribute m) or m is in SHARED_METHOD_NAMES.  A local variable named
    m reads nothing."""
    modules = _modules()
    owners = _attribute_owners(modules)
    classes = {name for held in owners.values() for name in held}
    units = []
    for name, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                units.extend((name, stmt.name, sub)
                             for sub in stmt.body + stmt.bases + stmt.decorator_list)
            elif name != "__init__.py" or not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                units.append((name, None, stmt))
    reads = []  # (unit, names read, (receiver class or None, attribute) pairs)
    for _, owner, unit in units:
        pairs = set()
        for node in ast.walk(unit):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = getattr(node.value, "id", None)
                held = owner if base in ("self", "cls") else base if base in classes else None
                pairs.add((held, node.attr))
        reads.append((unit, _names_used([unit]), pairs))
    exported, traced = _exported(modules["__init__.py"]), _traced_names()
    dead = []
    for name, owner, unit in units:
        if not isinstance(unit, ast.FunctionDef) or unit.name.startswith("_"):
            continue
        m = unit.name
        others = [(used, pairs) for other, used, pairs in reads if other is not unit]
        if owner is None:
            read = m in exported or m in traced or any(m in used for used, _ in others)
        else:
            through_value = m in SHARED_METHOD_NAMES or (
                owners[m] == {owner} and m not in BUILTIN_ATTRIBUTES)
            read = "%s.%s" % (owner, m) in traced or any(
                (owner, m) in pairs or (through_value and (None, m) in pairs)
                for _, pairs in others)
        if not read:
            dead.append("%s: %s%s" % (name, owner + "." if owner else "", m))
    return dead


def test_shared_method_names_are_shared():
    owners = _attribute_owners(_modules())
    stale = sorted(m for m in SHARED_METHOD_NAMES
                   if len(owners.get(m, ())) < 2 and m not in BUILTIN_ATTRIBUTES)
    assert not stale, "defined by one class only, drop from the list: %s" % ", ".join(stale)


def test_public_functions_are_read_exported_or_traced():
    dead = _library_dead_public()
    new = sorted(set(dead) - set(ONLY_TESTS_REACH))
    assert not new, "public names the library never reads: %s" % ", ".join(new)
    gone = sorted(set(ONLY_TESTS_REACH) - set(dead))
    assert not gone, "read by the library again or removed, drop from the list: %s" \
        % ", ".join(gone)


def test_no_private_imports_across_modules():
    # a name another module imports is part of its module's interface
    private = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.level or (node.module or "").startswith("formalconn")):
                private.extend("%s:%d %s" % (name, node.lineno, alias.name)
                               for alias in node.names
                               if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert not private, "private names imported across modules: %s" % ", ".join(private)


def test_reduction_table_private_to_scalars():
    # GroundField folds power-basis coordinates itself (fold)
    readers = ["%s:%d" % (name, node.lineno)
               for name, tree in _modules().items() if name != "scalars.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "_reduction"]
    assert not readers, "reduction table read outside scalars.py: %s" % ", ".join(readers)


def test_power_basis_encoding_private_to_scalars_and_linalg():
    # the integer encoding of field values lives in GroundField and the
    # rings of linalg; every other module computes through those rings
    callers = ["%s:%d %s" % (name, node.lineno, node.func.attr)
               for name, tree in _modules().items() if name not in ("scalars.py", "linalg.py")
               for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("fold", "fold_dicts", "element")]
    assert not callers, "power-basis folds or writes outside scalars.py and linalg.py: %s" \
        % ", ".join(callers)


def test_no_keep_alive_assignments():
    # `_ = name` only silences an unused-name warning: drop the name instead
    found = []
    for folder in (SRC, TESTS):
        for name, tree in _modules(folder).items():
            found.extend("%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                         if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                         and [getattr(t, "id", None) for t in node.targets] == ["_"])
    assert not found, "keep-alive assignments to _: %s" % ", ".join(found)
