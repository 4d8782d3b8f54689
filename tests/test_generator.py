import hashlib

import pytest

from nornet import (
    ConfigError,
    GeneratorConfig,
    NodeKind,
    generate_network,
    serialize_network,
)

# the acceptance criterion-8 networks, by fan range
CRITERION_8 = {
    fan: GeneratorConfig(
        3, 10, 30, fan_in_range=fan, fan_out_range=fan, ips_chain_prob=0.2,
        eta_range=(0.2, 0.9), leak_range=(0.0, 0.05), prior_range=(0.05, 0.4), seed=7,
    )
    for fan in ((1, 2), (3, 4))
}


class TestSizeProfiles:
    @pytest.mark.parametrize(
        "diseases,ips_count,findings,total",
        [
            (2, 2, 38, 42),
            (3, 46, 97, 146),
            (4, 80, 161, 245),
        ],
    )
    def test_node_counts_match_config(self, diseases, ips_count, findings, total):
        cfg = GeneratorConfig(diseases, ips_count, findings, seed=7)
        net = generate_network(cfg)
        assert len(net.nodes) == total
        assert len(net.nodes_of_kind(NodeKind.DISEASE)) == diseases
        assert len(net.nodes_of_kind(NodeKind.IPS)) == ips_count
        assert len(net.nodes_of_kind(NodeKind.FINDING)) == findings


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        cfg = GeneratorConfig(3, 10, 30, ips_chain_prob=0.2, seed=123)
        a = serialize_network(generate_network(cfg))
        b = serialize_network(generate_network(cfg))
        assert a == b

    @pytest.mark.parametrize(
        "cfg,digest",
        [
            (
                CRITERION_8[(1, 2)],
                "bf6baaf8d1de330fda430e067021ab37fb3022441a07ab58933d56619f0b96c8",
            ),
            (
                CRITERION_8[(3, 4)],
                "e164bc9d1d69a7c175bf418abd98480b0e6611955ae3c9070b26e140b2656f2b",
            ),
            (
                GeneratorConfig(4, 0, 12, seed=11),
                "199188207089a2809f487ab9d5079cab7218361880cdd52e843385d9f84ea138",
            ),
        ],
        ids=["criterion-8-low", "criterion-8-high", "two-level"],
    )
    def test_frozen_bytes(self, cfg, digest):
        # any change in how the generator consumes its stream fails here
        text = serialize_network(generate_network(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seed_differs(self):
        base = dict(n_diseases=3, n_ips=10, n_findings=30)
        a = serialize_network(generate_network(GeneratorConfig(**base, seed=1)))
        b = serialize_network(generate_network(GeneratorConfig(**base, seed=2)))
        assert a != b


class TestStructure:
    def test_generated_network_is_valid_and_connected(self):
        for seed in range(5):
            cfg = GeneratorConfig(
                3, 8, 20, fan_in_range=(1, 3), fan_out_range=(1, 3),
                ips_chain_prob=0.3, seed=seed,
            )
            net = generate_network(cfg)
            assert net.violations() == ()
            for node in net.nodes_of_kind(NodeKind.IPS):
                assert len(net.parents_of(node.id)) >= 1
                assert len(net.children_of(node.id)) >= 1
            for node in net.nodes_of_kind(NodeKind.FINDING):
                assert len(net.parents_of(node.id)) >= 1

    def test_phases_cover_legal_range(self):
        net = generate_network(GeneratorConfig(2, 4, 50, seed=5))
        phases = {n.phase for n in net.nodes_of_kind(NodeKind.FINDING)}
        assert phases <= {1, 2, 3, 4, 5}
        assert len(phases) >= 3  # 50 uniform draws hit most buckets

    def test_two_level_generation(self):
        net = generate_network(GeneratorConfig(4, 0, 12, seed=11))
        assert len(net.nodes_of_kind(NodeKind.IPS)) == 0
        for node in net.nodes_of_kind(NodeKind.FINDING):
            assert len(net.parents_of(node.id)) >= 1
        assert net.violations() == ()

    def test_leak_free_configuration(self):
        net = generate_network(
            GeneratorConfig(2, 4, 10, leak_range=(0.0, 0.0), seed=9)
        )
        assert all(n.leak == 0.0 for n in net.nodes)

    def test_chain_probability_produces_ips_ips_arcs(self):
        cfg = GeneratorConfig(
            2, 10, 10, fan_in_range=(2, 3), ips_chain_prob=0.9, seed=21
        )
        net = generate_network(cfg)
        ips_ids = {n.id for n in net.nodes_of_kind(NodeKind.IPS)}
        chain_edges = [
            e for e in net.edges if e.src in ips_ids and e.dst in ips_ids
        ]
        assert chain_edges
        assert net.violations() == ()

    def test_high_fan_clamps_to_available_pool(self):
        # 3 diseases cannot give the first intermediate 4 parents; the draw
        # clamps instead of failing, later intermediates may chain
        cfg = GeneratorConfig(
            3, 10, 30, fan_in_range=(3, 4), fan_out_range=(3, 4),
            ips_chain_prob=0.25, seed=2,
        )
        net = generate_network(cfg)
        assert net.violations() == ()
        fan_ins = [len(net.parents_of(n.id)) for n in net.nodes_of_kind(NodeKind.IPS)]
        assert min(fan_ins) >= 3


class TestConfigErrors:
    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(0, 2, 5)
        with pytest.raises(ConfigError):
            GeneratorConfig(2, -1, 5)
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 2, 0)

    def test_infeasible_fan_in_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 1, 5, fan_in_range=(5, 6))

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 2, 5, fan_in_range=(2, 1))
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 2, 5, eta_range=(0.0, 0.5))
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 2, 5, leak_range=(0.2, 1.0))
        with pytest.raises(ConfigError):
            GeneratorConfig(2, 2, 5, prior_range=(0.5, 0.2))
