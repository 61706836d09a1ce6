"""Source hygiene that needs no linter: every module-level import of the
package is used (``__init__.py`` is exempt: its imports are re-exports),
every private module-level name is used somewhere in the package, and every
private parameter is passed somewhere in the package or its tests."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projflow"
TESTS = Path(__file__).resolve().parent


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not unused, unused


def _references(node):
    """Names read under ``node`` as a variable, an attribute or an import."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_dead_private_module_names():
    # a module-level _name is private to the package, so it is dead unless
    # some module of the package refers to it outside its own definition
    nodes = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            nodes.append((path.name, node, _references(node)))
    dead = []
    for fname, node, _ in nodes:
        for name in _defined_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in refs
                       for _, other, refs in nodes if other is not node):
                dead.append("%s:%d %s" % (fname, node.lineno, name))
    assert not dead, dead


def test_monomial_keys_stay_in_algebra():
    # only algebra knows how ``Poly.ints`` packs a monomial into its key;
    # every other module reads exponents through ``Poly.terms`` or methods
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and n.attr == "ints":
                readers.append("%s:%d" % (path.name, n.lineno))
    assert not readers, readers


def _own_nodes(fn):
    """The nodes of a function's body, without those of nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            stack.extend(ast.iter_child_nodes(n))


def _loop_key(loop):
    """k for a loop ``for k, c in ...`` over (key, coefficient) terms."""
    t = loop.target
    if isinstance(t, ast.Tuple) and t.elts and isinstance(t.elts[0], ast.Name):
        return t.elts[0].id
    return None


def _nested_loop_keys(fn):
    """(outer key, inner key, inner scope) for each pair of nested loops of
    ``fn``, statements and comprehensions alike."""
    comps = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for n in _own_nodes(fn):
        if isinstance(n, comps):
            for i, a in enumerate(n.generators):
                for b in n.generators[i + 1:]:
                    yield _loop_key(a), _loop_key(b), n
        if not isinstance(n, ast.For):
            continue
        for m in ast.walk(n):
            if isinstance(m, ast.For) and m is not n:
                yield _loop_key(n), _loop_key(m), m
            elif isinstance(m, comps):
                for g in m.generators:
                    yield _loop_key(n), _loop_key(g), m


def test_one_product_loop():
    # a product of term lists adds the two monomial keys of each pair of
    # terms; only algebra._mul_ints does so, and every product and sum of
    # products (``poly_dot``) goes through it
    loops = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for k1, k2, scope in _nested_loop_keys(fn):
                if k1 and k2 and any(
                        isinstance(b, ast.BinOp) and isinstance(b.op, ast.Add)
                        and {getattr(b.left, "id", None),
                             getattr(b.right, "id", None)} == {k1, k2}
                        for b in ast.walk(scope)):
                    loops.add("%s.%s" % (path.stem, fn.name))
    assert loops == {"algebra._mul_ints"}, loops


def test_one_known_factor_loop():
    # dividing by a known factor for as long as the division is exact is
    # algebra._divide_known; no other function keeps a loop of its own
    loops = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for n in _own_nodes(fn):
                if isinstance(n, ast.While) and any(
                        isinstance(c, ast.Call)
                        and getattr(c.func, "id", None) == "_quotient"
                        for c in ast.walk(n)):
                    loops.add("%s.%s" % (path.stem, fn.name))
    assert loops == {"algebra._divide_known"}, loops


def test_private_parameters_are_passed():
    # a _name parameter is an internal knob; one that no call in the
    # package or its tests passes by keyword only ever takes its default
    passed = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                passed.update(k.arg for k in n.keywords if k.arg)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = n.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg.startswith("_") and arg.arg not in passed:
                    unpassed.append("%s:%d %s(%s)" % (path.name, n.lineno,
                                                      n.name, arg.arg))
    assert not unpassed, unpassed


def _imports_sympy(n):
    if isinstance(n, ast.Import):
        names = [alias.name for alias in n.names]
    elif isinstance(n, ast.ImportFrom):
        names = [n.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "sympy" for name in names)


def test_sympy_stays_in_algebra():
    # sympy's factorization is reached through ``algebra``; no other module
    # imports sympy, at module level or inside a function
    importers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if _imports_sympy(n):
                importers.append("%s:%d" % (path.name, n.lineno))
    assert not importers, importers


def test_sympy_in_algebra_only_for_factoring():
    # the gcds, square-free splits and root counts are native, with no
    # sympy fallback; only Zassenhaus in ``factor_list_q`` and factorint in
    # ``largest_prime_factor`` import sympy, each inside the function
    users = set()
    for top in ast.parse((SRC / "algebra.py").read_text()).body:
        if any(_imports_sympy(n) for n in ast.walk(top)):
            users.add(getattr(top, "name", "line %d" % top.lineno))
    assert users == {"factor_list_q", "largest_prime_factor"}, users


def test_classify_reaches_flows_only_through_canonicalize():
    # dual and the coordinate maps read the certified verdict of
    # canonicalize: classify builds no field of a flow and conjugates no flow
    tree = ast.parse((SRC / "classify.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"conjugate_flow", "vector_field"}


def test_parser_reduces_once_per_coordinate(monkeypatch):
    # the parser folds (num, den) pairs of polynomials with no RatFn
    # arithmetic and takes one outermost poly_gcd per nonzero coordinate,
    # plus one per power whose base has a non-constant denominator
    from projflow import algebra, flowcore, zoo
    from projflow.parser import parse_input, print_flow, print_vector_field

    real, depth, calls = algebra.poly_gcd, [0], [0]

    def counted(p, q):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return real(p, q)
        finally:
            depth[0] -= 1

    def forbidden(*args):
        raise AssertionError("RatFn arithmetic while parsing")

    monkeypatch.setattr(algebra, "poly_gcd", counted)
    monkeypatch.setattr(flowcore, "poly_gcd", counted)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__pow__"):
        monkeypatch.setattr(algebra.RatFn, op, forbidden)
    texts = [(print_flow(e.flow), 0) for e in zoo()]
    texts += [(print_vector_field(e.vf), 0) for e in zoo()]
    texts += [("u = (x/(x + y))^3 + 1/(x + y)^2; v = (y/(y + 1))^-2", 2),
              ("((x^3 + y^3)*(x - y)^-1, "
               "(x*y/(x + 2*y))^2*(x + y)^2/(x*y))", 1)]
    for text, powers in texts:
        calls[0] = 0
        parse_input(text)
        assert calls[0] == 2 + powers, (text, calls[0])
