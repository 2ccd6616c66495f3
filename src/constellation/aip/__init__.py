from .messages import AipMessage, MessageType, decode, encode

__all__ = ["AipMessage", "MessageType", "decode", "encode"]
