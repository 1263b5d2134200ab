"""Tests for query specs and planning."""

import pytest

from repro.errors import QueryError
from repro.rdf import TriplePattern
from repro.service import QueryKind, QueryPlanner, QuerySpec


class TestQuerySpec:
    def test_knn_constructor(self, small_corpus):
        triple = small_corpus.all_triples()[0]
        spec = QuerySpec.k_nearest(triple, 5)
        assert spec.kind is QueryKind.KNN
        assert spec.k == 5

    def test_range_constructor(self, small_corpus):
        triple = small_corpus.all_triples()[0]
        spec = QuerySpec.range_query(triple, 0.25)
        assert spec.kind is QueryKind.RANGE
        assert spec.radius == 0.25

    def test_invalid_k_rejected(self, small_corpus):
        triple = small_corpus.all_triples()[0]
        with pytest.raises(QueryError):
            QuerySpec.k_nearest(triple, 0)

    def test_negative_radius_rejected(self, small_corpus):
        triple = small_corpus.all_triples()[0]
        with pytest.raises(QueryError):
            QuerySpec.range_query(triple, -0.1)

    def test_non_positive_deadline_rejected(self, small_corpus):
        triple = small_corpus.all_triples()[0]
        with pytest.raises(QueryError):
            QuerySpec.k_nearest(triple, 3, deadline=0.0)


class TestQueryPlanner:
    def test_plan_embeds_the_triple_once(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triple = corpus.all_triples()[0]
        planned = planner.plan(QuerySpec.k_nearest(triple, 3))
        assert planned.point.coordinates == tuple(index.embed_query(triple).coordinates)
        assert planned.cache_key[0] == "knn"

    def test_identical_specs_share_a_cache_key(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triple = corpus.all_triples()[0]
        a = planner.plan(QuerySpec.k_nearest(triple, 3))
        b = planner.plan(QuerySpec.k_nearest(triple, 3))
        assert a.cache_key == b.cache_key

    def test_parameters_differentiate_cache_keys(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triple = corpus.all_triples()[0]
        knn3 = planner.plan(QuerySpec.k_nearest(triple, 3))
        knn5 = planner.plan(QuerySpec.k_nearest(triple, 5))
        rng = planner.plan(QuerySpec.range_query(triple, 0.3))
        assert len({knn3.cache_key, knn5.cache_key, rng.cache_key}) == 3

    def test_pattern_is_part_of_the_cache_key(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triple = corpus.all_triples()[0]
        bare = planner.plan(QuerySpec.k_nearest(triple, 3))
        pattern = TriplePattern(subject=triple.subject)
        filtered = planner.plan(QuerySpec.k_nearest(triple, 3, pattern=pattern))
        assert bare.cache_key != filtered.cache_key

    def test_deadline_is_not_part_of_the_cache_key(self, built_requirements_index):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triple = corpus.all_triples()[0]
        fast = planner.plan(QuerySpec.k_nearest(triple, 3, deadline=0.1))
        slow = planner.plan(QuerySpec.k_nearest(triple, 3, deadline=30.0))
        assert fast.cache_key == slow.cache_key

    def test_plan_batch_embeds_each_distinct_triple_once(self, built_requirements_index,
                                                         monkeypatch):
        index, _, corpus = built_requirements_index
        planner = QueryPlanner(index)
        triples = corpus.all_triples()
        embedded = []
        real_embed = index.embed_query

        def counting_embed(triple):
            embedded.append(triple)
            return real_embed(triple)

        monkeypatch.setattr(index, "embed_query", counting_embed)
        specs = [
            QuerySpec.k_nearest(triples[0], 3),
            QuerySpec.k_nearest(triples[1], 3),
            QuerySpec.k_nearest(triples[0], 3),  # repeats the first
            QuerySpec.range_query(triples[0], 0.2),
        ]
        planned = planner.plan_batch(specs)
        assert [query.spec for query in planned] == specs
        assert embedded == [triples[0], triples[1]]
        assert planned[0].cache_key == planned[2].cache_key
        assert planned[0].point is planned[3].point

    def test_unbuilt_index_is_rejected(self, requirement_distance):
        from repro.core import SemTreeIndex
        from repro.errors import IndexError_
        from repro.rdf import Triple

        planner = QueryPlanner(SemTreeIndex(requirement_distance))
        with pytest.raises(IndexError_):
            planner.plan(QuerySpec.k_nearest(Triple.of("A", "Fun:accept_cmd", "CmdType:x"), 1))
