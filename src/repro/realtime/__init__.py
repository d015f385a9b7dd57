"""Real-time zombie detection (the paper's §6 operator platform)."""

from repro.realtime.streaming import StreamingDetector, ZombieAlert

__all__ = ["StreamingDetector", "ZombieAlert"]
