#!/bin/sh
# Guard the principals' effects seam.
#
# lib/core/replica.ml and lib/core/client.ml act on the world only through
# their effects record (lib/core/env.mli), which Cluster builds over the
# simulator and lib/core/behavior.ml wraps with a replica's wire faults.
# A principal names another by its id; which machine runs it is the
# record builder's business. This script strips comments from the four
# and reports every use of a value of Engine, Network, Transport,
# Dispatcher or Cpu (the [val]s their .mli files declare), and in
# replica.ml of Rng, every Trace.emit or Trace.enabled, every mention of a
# machine (Transport.peer or its fields Transport.node and
# Transport.principal, a [.node] or [.principal] field read, or
# Network.node_id), and every way around the check: a module alias that
# renames one of those modules, or an [open], [include] or local open of
# one. Other type names and constructors stay allowed
# ([Transport.verdict], [Transport.Accepted], [Cpu.Digest]).
#
# Prints one "path:line: text" per use and exits 1 if there is one.
#
# Usage: test/check_seam.sh [ROOT]
set -eu

root=${1:-$(dirname "$0")/..}
files="$root/lib/core/replica.ml $root/lib/core/client.ml $root/lib/core/behavior.ml
  $root/lib/core/env.mli"

vals() {
  sed -n 's/^val \([a-z_][A-Za-z0-9_'\'']*\).*/\1/p' "$root/$1" | tr '\n' '|' | sed 's/|$//'
}

for f in lib/sim/engine.mli lib/net/network.mli lib/core/transport.mli \
  lib/core/dispatcher.mli lib/sim/cpu.mli lib/util/rng.mli $files; do
  case $f in "$root"/*) p=$f ;; *) p=$root/$f ;; esac
  if [ ! -f "$p" ]; then
    echo "$p: missing"
    exit 1
  fi
done

awk \
  -v engine="$(vals lib/sim/engine.mli)" \
  -v network="$(vals lib/net/network.mli)" \
  -v transport="$(vals lib/core/transport.mli)" \
  -v dispatcher="$(vals lib/core/dispatcher.mli)" \
  -v cpu="$(vals lib/sim/cpu.mli)" \
  -v rng="$(vals lib/util/rng.mli)" '
  BEGIN {
    id = "[A-Za-z0-9_'\'']"
    use["Engine"] = engine; use["Network"] = network
    use["Transport"] = transport; use["Dispatcher"] = dispatcher; use["Cpu"] = cpu
    use["Trace"] = "emit|enabled"; use["Rng"] = rng
  }
  # A use of one of [m]s values: not a field access ("x.M.f") and not a
  # field label in a record construction or pattern ("{ M.f = ...",
  # "{ M.f; ...").
  function calls(text, m,   rest, before, after) {
    rest = text
    while (match(rest, "(^|[^A-Za-z0-9_'\''])((Bft_sim|Bft_net|Bft_core|Bft_trace|Bft_util)\\.)?" m "\\.(" use[m] ")([^A-Za-z0-9_'\'']|$)")) {
      before = substr(rest, 1, RSTART - (substr(rest, RSTART, 1) ~ /[A-Z]/))
      after = substr(rest, RSTART + RLENGTH - 1)
      rest = after
      if (before ~ /\.$/) continue
      if (before ~ /(^|[{;])[ \t]*$/ && after ~ /^[ \t]*([;}]|=[^=])/) continue
      return 1
    }
    return 0
  }
  # The modules this file must not use, and the libraries that hold them.
  FNR == 1 {
    depth = 0; names = "Engine|Network|Transport|Dispatcher|Cpu"; libs = "Bft_sim|Bft_net"
    if (FILENAME ~ /(^|\/)replica\.ml$/) { names = names "|Rng"; libs = libs "|Bft_util" }
    mods = "(" names ")"
  }
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
    bad = 0
    # A machine: the peer record, its fields, or a node id.
    if (out ~ "(^|[^A-Za-z0-9_'\''])Transport\\.(peer|node|principal)([^A-Za-z0-9_'\'']|$)") bad = 1
    if (out ~ "[A-Za-z0-9_'\'')]\\.(node|principal)([^A-Za-z0-9_'\'']|$)") bad = 1
    if (out ~ "(^|[^A-Za-z0-9_'\''])Network\\.node_id([^A-Za-z0-9_'\'']|$)") bad = 1
    for (m in use) if ((m != "Rng" || names ~ /Rng/) && calls(out, m)) bad = 1
    # An alias must keep the name, or the checks above cannot see through it.
    if (match(out, "module[ \t]+" id "+[ \t]*=[ \t]*[A-Za-z0-9_.]*" mods "[ \t]*$")) {
      alias = out; sub(/^.*module[ \t]+/, "", alias); sub(/[ \t]*=.*$/, "", alias)
      target = out; sub(/[ \t]*$/, "", target); sub(/^.*[ .=]/, "", target)
      if (alias != target) bad = 1
    }
    if (out ~ "(^|[^A-Za-z0-9_'\''])(open|include)!?[ \t]+([A-Za-z0-9_]+\\.)*(" names "|" libs ")([^A-Za-z0-9_'\'']|$)") bad = 1
    if (out ~ "(^|[^A-Za-z0-9_'\''])" mods "\\.\\(") bad = 1
    if (bad) { print FILENAME ":" FNR ": " $0; found = 1 }
  }
  END { exit found }' $files
