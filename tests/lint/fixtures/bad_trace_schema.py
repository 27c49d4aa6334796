"""Lint fixture: trace-phase schema violations at record call sites."""


class Reporter:
    def __init__(self, tracer):
        self.tracer = tracer

    def typo_label(self, shard):
        self.tracer.record("cluster", "migrate_cutovr", shard=shard)

    def missing_field(self, shard):
        self.tracer.record("cluster", "failover", shard=shard)

    def unknown_category(self):
        self.tracer.record("cluster.extra", "route", shard="s0")

    def extra_field(self, shard):
        self.tracer.record("cluster", "shard_killed", shard=shard, color="red")

    def dynamic_label(self, label):
        self.tracer.record("cluster", label, shard="s0")

    def positional_data(self):
        self.tracer.record("cluster", "shard_killed", "s0")

    def clean(self, shard):
        self.tracer.record("cluster", "shard_killed", shard=shard)

    def clean_splat(self, **data):
        self.tracer.record("cluster", "route", **data)
