"""Privacy-preserving vaccination credentials.

Eligibility coupons signed against a zip/occupation allocation, paper and
app credentials bound to hashed identity material, selective disclosure
from a salted hash tree, contactless group verification with rotating
short codes, and split-share symptom aggregation with calibrated noise.
"""

__version__ = "0.1.0"
