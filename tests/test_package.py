import ast

import levy_groups
import levy_groups.cli


def test_every_export_resolves_once():
    names = levy_groups.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(levy_groups, n)] == []


def test_cli_reads_no_private_name_of_another_module():
    # each module states its own memory charge; the CLI sums them
    with open(levy_groups.cli.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
