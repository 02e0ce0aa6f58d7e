"""The benchmark's traced runs wrap package functions by (owner, attribute);
every such site must keep resolving, or a traced run loses that layer."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = tracer.LAYER_FUNCTIONS + tracer.OUTER_FUNCTIONS
    assert sites
    for key, owners, _builds_nodes in sites:
        for owner, attr in owners:
            assert callable(getattr(owner, attr, None)), f"{key}: {owner.__name__}.{attr} is gone"
