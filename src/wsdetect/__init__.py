"""wsdetect: hybrid webshell detection toolkit.

Two pipelines share one package: signature rules plus an opcode-sequence
CNN for source files, and rule generation plus a tabular DNN over
network-flow features for HTTP traffic, with a socket daemon that
inspects the captures it is sent.
"""

__version__ = "0.1.0"
