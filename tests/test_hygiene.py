"""Source hygiene that needs no linter: every module-level import of the
package is used (``__init__.py`` is exempt: its imports are re-exports),
every private module-level name is used somewhere in the package, every
public name is used by the package, the README or the benchmark harness
unless an allowlist says why not, and every private parameter is passed
somewhere in the package or its tests."""
import ast
import re
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


# Public names that only tests call, kept as the paper's objects or as the
# general form that tests check the library's closed forms against.
TEST_ONLY_PUBLIC = {
    "HomBir.linear": "a linear map as a 1-BIR element, the paper's linear "
                     "conjugators; tests build conjugates with it",
    "HomBir.involution_i": "the paper's involution i; _Chain composes it in "
                           "closed form, and tests check that against it",
    "conjugate_vf": "conjugation of a field by any 1-BIR map; the library "
                    "conjugates by linear and radial pieces only, and tests "
                    "check those against it",
    "classify_involution": "the paper's classification of involutions",
    "vecc": "the paper's vector field of the (sigma, tau) family",
    "compose_flows_level0": "the paper's group law of level-0 flows",
}


def _outside_references():
    """Names that README code spans and the benchmark harness refer to; a
    string constant of bench/ that is a dotted path names each part."""
    found = set()
    readme = (SRC.parents[1] / "README.md").read_text()
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, re.S):
        found.update(re.findall(r"[A-Za-z_]\w*", span))
    for path in sorted((SRC.parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= _references(tree)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and re.fullmatch(r"[A-Za-z_][\w.]*", n.value)):
                found.update(n.value.split("."))
    return found


def test_no_test_only_public_names():
    # a public function, class or method is dead weight to the library when
    # only tests call it: some module of the package (outside its own
    # definition; __init__ re-exports do not count), the README or the
    # benchmark harness must refer to it, or it is allowlisted with a
    # reason.  Names match as in the private-name test, so a method counts
    # as referred to when any attribute of its name is read.
    tops, defs = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            tops.append(top)
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((top, top.name))
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                defs += [(m, "%s.%s" % (top.name, m.name))
                         for m in top.body if isinstance(m, ast.FunctionDef)]
    outside = _outside_references()
    unused = set()
    for node, qual in defs:
        name = qual.rpartition(".")[2]
        if name.startswith("_") or name in outside:
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   for top in tops for n in ast.walk(top)
                   if id(n) not in own):
            unused.add(qual)
    assert unused - set(TEST_ONLY_PUBLIC) == set(), sorted(unused)
    # an allowlisted name that something else now refers to leaves the list
    assert set(TEST_ONLY_PUBLIC) <= unused, sorted(set(TEST_ONLY_PUBLIC)
                                                   - unused)


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


def test_cli_classify_builds_one_field_and_one_split(monkeypatch):
    # projflow classify reads zeros_poles off the field that canonicalize
    # classified, and the certificate and the orbit invariant share ell's
    # linear split: each catalogue flow text runs one jet field and splits
    # one ell, from the adjugate of L, with no LinearMap2.inverse
    import contextlib
    import io
    import runpy
    from projflow import birmap, classify, cli, flowcore
    from projflow.algebra import LinearMap2

    rows = runpy.run_path(str(SRC.parent.parent / "bench" / "catalogue.py"))
    counts = {}

    def count(key, fn, when=lambda *args: True):
        def counted(*args):
            if when(*args):
                counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return counted

    jets = count("_jet_field", flowcore._jet_field)
    monkeypatch.setattr(flowcore, "_jet_field", jets)
    monkeypatch.setattr(classify, "_jet_field", jets)
    monkeypatch.setattr(birmap.HomBir, "linear_split", count(
        "split", birmap.HomBir.linear_split, lambda h: h._split is None))
    monkeypatch.setattr(LinearMap2, "inverse",
                        count("inverse", LinearMap2.inverse))
    texts = [row[1] for row in rows["CATALOGUE"]]
    assert len(texts) == 19
    for text in texts:
        counts.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", text, "--json"]) == 0, text
        assert '"zeros_poles"' in out.getvalue(), text
        assert counts == {"_jet_field": 1, "split": 1}, (text, counts)


def test_transported_invariant_divides_nothing(monkeypatch):
    # the invariant reads signed exponents off ell's linear split: no
    # known-factor division and no exact division runs inside it
    from projflow import algebra, birmap, classify, flowcore, odesolve, zoo

    scope, seen, ran = [], [], []

    def spy(name, fn):
        def watched(*args):
            if scope:
                seen.append(name)
            return fn(*args)
        return watched

    for owner in (algebra, birmap, classify, flowcore, odesolve):
        for name in ("_divide_known", "_quotient"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name,
                                    spy(name, getattr(owner, name)))
    invariant = classify._transported_invariant

    def run(*args):
        ran.append(args[1])
        scope.append(True)
        try:
            return invariant(*args)
        finally:
            scope.pop()
    monkeypatch.setattr(classify, "_transported_invariant", run)
    for entry in zoo():
        classify.canonicalize(entry.flow)
    assert set(ran) == {1, 2, 3}
    assert seen == []
