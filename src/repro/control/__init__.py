"""Control plane: task memory allocation and edge security.

The paper keeps the control plane deliberately thin: a "control-plane agent
to partition switch SRAM and isolate concurrently executing network tasks"
(§3.2), plus edge enforcement that strips or drops TPPs from untrusted
sources (§4).  Both live here.
"""
