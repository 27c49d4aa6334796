"""Unit tests for RfpConfig validation and the hybrid switch policy."""

import pytest

from repro.core import Mode, RfpConfig, SwitchPolicy
from repro.errors import ProtocolError


class TestRfpConfig:
    def test_paper_defaults(self):
        config = RfpConfig()
        assert config.retry_bound == 5
        assert config.fetch_size == 256
        assert config.consecutive_slow_calls == 2
        assert config.switch_back_process_time_us == pytest.approx(7.0)

    def test_with_parameters(self):
        config = RfpConfig().with_parameters(retry_bound=3, fetch_size=640)
        assert (config.retry_bound, config.fetch_size) == (3, 640)
        # Other fields preserved.
        assert config.hybrid_enabled

    def test_invalid_retry_bound(self):
        with pytest.raises(ProtocolError):
            RfpConfig(retry_bound=0)

    def test_fetch_size_must_cover_header(self):
        with pytest.raises(ProtocolError):
            RfpConfig(fetch_size=4)

    def test_fetch_size_within_response_buffer(self):
        with pytest.raises(ProtocolError):
            RfpConfig(fetch_size=65536, response_buffer_bytes=16384)

    def test_consecutive_slow_calls_positive(self):
        with pytest.raises(ProtocolError):
            RfpConfig(consecutive_slow_calls=0)

    @pytest.mark.parametrize(
        "field",
        [
            "client_post_cpu_us",
            "client_parse_cpu_us",
            "client_wake_cpu_us",
            "server_poll_cpu_us",
            "server_sw_us",
            "server_sw_jitter_us",
            "reply_send_per_byte_us",
        ],
    )
    def test_negative_cost_rejected_at_construction(self, field):
        with pytest.raises(ProtocolError, match=rf"^{field} must be >= 0, got -0.1$"):
            RfpConfig(**{field: -0.1})

    def test_zero_costs_allowed(self):
        RfpConfig(client_post_cpu_us=0.0, server_sw_jitter_us=0.0)


class TestSwitchPolicy:
    def make(self, **kwargs):
        return SwitchPolicy(RfpConfig(**kwargs))

    def test_starts_in_remote_fetch(self):
        assert self.make().mode is Mode.REMOTE_FETCH

    def test_single_slow_call_does_not_switch(self):
        """§3.2: one unexpectedly long request must not flap the mode."""
        policy = self.make(consecutive_slow_calls=2)
        assert policy.note_slow_call() is False
        assert policy.mode is Mode.REMOTE_FETCH

    def test_two_consecutive_slow_calls_switch(self):
        policy = self.make(consecutive_slow_calls=2)
        assert policy.note_slow_call() is False
        assert policy.note_slow_call() is True
        assert policy.mode is Mode.SERVER_REPLY
        assert policy.switches_to_reply == 1

    def test_fast_call_resets_slow_streak(self):
        policy = self.make(consecutive_slow_calls=2)
        policy.note_slow_call()
        policy.note_fast_call()
        assert policy.note_slow_call() is False
        assert policy.mode is Mode.REMOTE_FETCH

    def test_hybrid_disabled_never_switches(self):
        policy = self.make(hybrid_enabled=False)
        for _ in range(10):
            assert policy.note_slow_call() is False
        assert policy.mode is Mode.REMOTE_FETCH

    def test_switch_back_on_fast_response_time(self):
        policy = self.make(consecutive_slow_calls=1)
        policy.note_slow_call()
        assert policy.mode is Mode.SERVER_REPLY
        assert policy.note_reply_time(9.0) is False
        assert policy.mode is Mode.SERVER_REPLY
        assert policy.note_reply_time(3.0) is True
        assert policy.mode is Mode.REMOTE_FETCH
        assert policy.switches_to_fetch == 1

    def test_switch_back_threshold_is_exclusive(self):
        policy = self.make(consecutive_slow_calls=1, switch_back_process_time_us=7.0)
        policy.note_slow_call()
        assert policy.note_reply_time(7.0) is False
        assert policy.note_reply_time(6.99) is True

    def test_slow_counter_resets_after_switch(self):
        policy = self.make(consecutive_slow_calls=2)
        policy.note_slow_call()
        policy.note_slow_call()
        policy.note_reply_time(1.0)  # back to fetch mode
        # A fresh streak is needed to switch again.
        assert policy.note_slow_call() is False
        assert policy.mode is Mode.REMOTE_FETCH

    def test_observation_in_wrong_mode_rejected(self):
        policy = self.make(consecutive_slow_calls=1)
        with pytest.raises(ValueError):
            policy.note_reply_time(1.0)
        policy.note_slow_call()
        with pytest.raises(ValueError):
            policy.note_fast_call()
        with pytest.raises(ValueError):
            policy.note_slow_call()
