from .messages import AipMessage, MessageType, decode, encode
from .backoff import BackoffPolicy
from .profile import AgentProfile, AgentStatus, ProfileRegistry, merge_profile

__all__ = [
    "AipMessage",
    "MessageType",
    "decode",
    "encode",
    "BackoffPolicy",
    "AgentProfile",
    "AgentStatus",
    "ProfileRegistry",
    "merge_profile",
]
