import re

import pytest

from mutations import MUTATIONS, ROOT


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.id)
def test_mutation_anchors(mutation):
    # each mutation still applies to exactly one place, and names tests that exist
    assert (ROOT / mutation.file).read_text().count(mutation.old) == 1
    assert mutation.new != mutation.old and mutation.tests
    for node in mutation.tests:
        path, name = node.split("[")[0].split("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), node


def test_mutation_ids_are_unique():
    assert len({m.id for m in MUTATIONS}) == len(MUTATIONS)
