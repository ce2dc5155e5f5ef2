#!/bin/sh
# Guard the per-message path against polymorphic hashing and comparison.
#
# The modules every datagram passes through (the event heap and engine,
# the CPU model, the network, MACs and authenticators, the codec of
# messages and payloads, the transport and dispatcher), the replica's
# handlers and the wire-fault wrapper around its effects (behavior.ml)
# included, the execution trail every finalized batch is appended to, and
# the key-value store every KV request executes in, must
# look peers up by direct index or in monomorphic tables ([Hashtbl.Make],
# [Map.Make]), keep quorum votes in arrays over replica ids, and compare
# with typed functions ([Int.compare], [Int64.compare], [String.equal],
# ...).
# This script strips comments from each of them and reports every
# remaining use of the polymorphic [Hashtbl] interface ([Hashtbl.create],
# [Hashtbl.find_opt], [Hashtbl.hash], the type [Hashtbl.t], ...) or of
# [Stdlib.compare], bare or qualified.
#
# Prints one "path:line: text" per use and exits 1 if there is one.
#
# Usage: test/check_hot_path.sh [ROOT]
set -eu

root=${1:-$(dirname "$0")/..}

files='
lib/util/heap.ml
lib/sim/engine.ml
lib/sim/cpu.ml
lib/net/network.ml
lib/crypto/auth.ml
lib/crypto/keychain.ml
lib/core/message.ml
lib/core/payload.ml
lib/core/nonce_window.ml
lib/core/transport.ml
lib/core/log.ml
lib/core/client.ml
lib/core/dispatcher.ml
lib/core/replica.ml
lib/core/behavior.ml
lib/core/trail.ml
lib/services/kv_store.ml
'

bad=0
for f in $files; do
  if [ ! -f "$root/$f" ]; then
    echo "$root/$f: missing"
    bad=1
    continue
  fi
  found=$(awk '
    {
      out = ""
      line = $0
      while (line != "") {
        if (depth > 0) {
          o = index(line, "(*"); c = index(line, "*)")
          if (c == 0 && o == 0) { line = ""; break }
          if (o > 0 && (c == 0 || o < c)) { depth++; line = substr(line, o + 2) }
          else { depth--; line = substr(line, c + 2) }
        } else {
          o = index(line, "(*")
          if (o == 0) { out = out line; line = "" }
          else { out = out substr(line, 1, o - 1) " "; depth = 1; line = substr(line, o + 2) }
        }
      }
      if (out ~ /Hashtbl\.[a-z_]/ ||
          out ~ /(^|[^A-Za-z0-9_.'\''])compare([^A-Za-z0-9_'\'']|$)/ ||
          out ~ /Stdlib\.compare/)
        print FILENAME ":" FNR ": " $0
    }' "$root/$f")
  if [ -n "$found" ]; then
    printf '%s\n' "$found"
    bad=1
  fi
done
exit $bad
