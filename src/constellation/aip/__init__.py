from .messages import AipMessage, MessageType, decode, encode
from .backoff import BackoffPolicy

__all__ = [
    "AipMessage",
    "MessageType",
    "decode",
    "encode",
    "BackoffPolicy",
]
