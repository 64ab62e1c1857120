"""The package's public surface is what its own code calls: a public
top-level function, class or constant that no code of the package
refers to is reached only by the tests, and belongs in tests/helpers.py
or nowhere.  So does a private top-level function or class that no
code of the package refers to outside its own definition, and every
name a module imports is read in that module.  Every top-level function
of tests/helpers.py is read by a test module or by another helper."""

import ast
from pathlib import Path

import expctrl

SRC = Path(expctrl.__file__).parent


def _private_definitions(tree):
    """Names of the private top-level functions and classes of a
    module."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def _public_definitions(tree):
    """Names of the public top-level functions and classes of a module,
    and of the names its top-level assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [name.id for target in node.targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _referenced_names(tree):
    """(name, owner) of every ast.Name and ast.Attribute of a module
    that is read, not bound; owner is the top-level definition the
    reference sits in, or None."""
    refs = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
    return refs


def _unreferenced(definitions):
    """module.name of each definitions(tree) name of the package that
    no code of the package refers to outside the definition itself."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = set().union(*(_referenced_names(t) for t in trees.values()))
    return sorted(
        "%s.%s" % (module[:-3], defined)
        for module, tree in trees.items()
        for defined in definitions(tree)
        if not any(name == defined and owner != defined
                   for name, owner in refs))


def test_every_public_definition_is_referenced_by_the_package():
    assert _unreferenced(_public_definitions) == []


def test_every_private_function_and_class_is_used_by_the_package():
    assert _unreferenced(_private_definitions) == []


def _unread_imports(tree):
    """Names that the import statements of a module bind, at any depth,
    and that no code of the module reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).partition(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_imported_name_is_read_by_its_module():
    unread = sorted("%s.%s" % (path.stem, name)
                    for path in sorted(SRC.glob("*.py"))
                    for name in _unread_imports(ast.parse(path.read_text())))
    assert unread == []


def _heavy(name):
    """Whether the dotted module name is numpy.random, a scipy module,
    or inside one."""
    return any(name == top or name.startswith(top + ".")
               for top in ("numpy.random", "scipy"))


def _heavy_imports(tree):
    """(line, name) of each import of numpy.random or of a scipy module
    in a module, and of each read of numpy's random attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = ["%s.%s" % (node.module, alias.name)
                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            names = ["numpy.random"]
        else:
            continue
        found += [(node.lineno, name) for name in names if _heavy(name)]
    return found


def test_no_module_imports_numpy_random_or_scipy():
    found = sorted("%s:%d %s" % (path.name, line, name)
                   for path in sorted(SRC.glob("*.py"))
                   for line, name in _heavy_imports(
                       ast.parse(path.read_text())))
    assert found == []


def test_every_helper_is_used_by_a_test_or_another_helper():
    # a helper that no test reads, such as a reference left behind by
    # the code it checked, is dead weight of the suite
    tests = Path(__file__).parent
    helpers = ast.parse((tests / "helpers.py").read_text())
    refs = _referenced_names(helpers)
    for path in sorted(tests.glob("test_*.py")):
        refs |= {(name, None) for name, _ in
                 _referenced_names(ast.parse(path.read_text()))}
    defined = [node.name for node in helpers.body
               if isinstance(node, ast.FunctionDef)]
    assert sorted(name for name in defined
                  if not any(ref == name and owner != name
                             for ref, owner in refs)) == []
