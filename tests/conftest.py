import functools
import json

import pytest

from origami_h2.cli import seed_surface
from origami_h2.enumeration import enumerate_diagrams
from origami_h2.origami_core import build_from_diagram, canonical_key
from origami_h2.sl2_orbit import orbit


@pytest.fixture(scope="session")
def enum_keys():
    """Memoised canonical keys of the census — several suites sweep the same ranges."""

    @functools.lru_cache(maxsize=None)
    def keys(n: int) -> set:
        return {canonical_key(build_from_diagram(d)) for d in enumerate_diagrams(n)}

    return keys


@pytest.fixture(scope="session")
def named_orbit():
    """Memoised orbit computation for the named families A/B/C."""

    @functools.lru_cache(maxsize=None)
    def compute(label: str, n: int):
        return orbit(seed_surface(label, n))

    return compute


@pytest.fixture(scope="session")
def as_schema_2():
    """Rewrite a schema-3 orbit document in the schema-2 layout.

    Schema 2 spelled every edge target and cusp representative out as a
    surface text where schema 3 stores its position in ``surfaces``.
    """

    def convert(text: str) -> str:
        doc = json.loads(text)
        texts = doc["surfaces"]
        doc["schema_version"] = 2
        doc["t_edges"] = [texts[i] for i in doc["t_edges"]]
        doc["s_edges"] = [texts[i] for i in doc["s_edges"]]
        for cusp in doc["cusps"]:
            cusp["rep"] = texts[cusp["rep"]]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    return convert
