import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_SMOKE = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (task contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_small(ray_session):
    from knowledgegraph__bh_ray.pagegen import ensure_pages

    return ensure_pages(SF_SMOKE)


@pytest.fixture(scope="session")
def golden_small(pages_small):
    from knowledgegraph__bh_ray.oracle import ensure_golden

    return ensure_golden(SF_SMOKE)


@pytest.fixture(scope="session")
def page_graph_small(pages_small):
    """The sf0.001 page-link graph (src_url, dst_url, text), materialized.
    A real graph: repeated (src, dst) pairs with different anchor texts and
    placeholder targets that were never crawled."""
    from knowledgegraph__bh_ray.pipelines import kg

    return kg.page_graph_edges_ds(kg.parsed_ds(pages_small)).materialize()
