"""Link-level simulation of a quantized wearable-sensor uplink over a
multipath MIMO-OFDM channel, with classical (LS + LMMSE) and trainable
neural receivers."""

__version__ = "0.1.0"
