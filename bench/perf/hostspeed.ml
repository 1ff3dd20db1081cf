(* How fast the host runs our code, measured beside the work.

   The benchmark gets a few cores of a host it shares with other tenants,
   and how fast those cores run OCaml drifts by up to half over seconds
   to minutes as the tenants come and go.  Timing a unit on the CPU clock
   leaves out the time the scheduler gave to others, but not that drift:
   on a 2-vCPU VM, ten runs of identical work spread 15-39 % (interquartile
   distance over median) on the CPU clock alone.

   So every run also times a fixed piece of work of its own, the probe,
   about ten times a second, and reports each unit's CPU time, and each
   traced layer's time, scaled to a host on which the probe takes
   [reference_s]: a cell that took 30 ms while the probe took 1.5 times
   its reference reads 20 ms.  The probe is ordinary symbolic OCaml,
   balanced-map updates that allocate short-lived lists.  Of five
   candidates (hashing and sorting, pointer chasing in L2 and in memory,
   a bytecode interpreter loop, and this one) it is the one whose
   slowdown tracked the beam search's, the SAT solver's and the
   simulator's most closely: over one-second windows its time correlated
   with theirs at 0.90-0.97, and they slowed 0.9-1.4 times as much as it
   did, so scaling takes out most of the drift but not all.  The probe
   belongs to the benchmark and must never change: every scaled time
   changes with it. *)

(* CPU time of this process, in seconds.  The workloads run their units
   one at a time on one thread, so on an idle host a unit's CPU time is
   its wall time. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

module IM = Map.Make (Int)

(* The probe: the same 3000 updates every time. *)
let work () =
  let rng = ref 0x2545F491 and m = ref IM.empty in
  for _ = 1 to 3000 do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let k = !rng land 0xfff in
    m := IM.update k (function None -> Some [ k ] | Some l -> Some (k :: l)) !m
  done;
  IM.fold (fun _ l acc -> acc + List.length l) !m 0

(* The probe's CPU time on the reference host: the 2-vCPU VM the recorded
   runs in README.md come from, when its other tenants are quiet.  There
   a scaled time reads about what the CPU clock reads. *)
let reference_s = 0.00075

(* Seconds of wall time between probes, and how many probes nearest in
   time to a unit decide its scale: fifteen probes span about a second
   and a half, shorter than the host's slow and fast periods, and enough
   that one probe caught in a short burst does not decide. *)
let interval_s = 0.1
let nearest = 15

type t = {
  mutable samples : (float * float) list;
      (** (wall time of the probe, its CPU seconds), newest first *)
  mutable last : float;
}

let create () = { samples = []; last = neg_infinity }

let probe t =
  let at = Cgra_util.Clock.now () in
  let c0 = cpu () in
  ignore (Sys.opaque_identity (work ()));
  t.samples <- (at, Float.max 0.0 (cpu () -. c0)) :: t.samples;
  t.last <- at

(* Probes if [interval_s] has passed since the last probe. *)
let tick t = if Cgra_util.Clock.now () -. t.last >= interval_s then probe t

(* [slowdown t ~at]: how much slower than the reference host the host
   ran around wall time [at], the median CPU time of the [nearest] probes
   closest to [at] over [reference_s]; 1.0 without probes.  Apply it once
   the probes are in, so that the probes after a unit count too. *)
let slowdown t =
  (* oldest first: probes are taken in time order *)
  let probes = Array.of_list (List.rev t.samples) in
  let n = Array.length probes in
  let time i = fst probes.(i) in
  fun ~at ->
    if n = 0 then 1.0
    else begin
      (* first probe at or after [at] *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if time mid < at then search (mid + 1) hi else search lo mid
      in
      (* grow the window [lo, hi) towards the nearer neighbour *)
      let rec grow lo hi =
        if hi - lo >= nearest || (lo = 0 && hi = n) then (lo, hi)
        else if lo = 0 then grow lo (hi + 1)
        else if hi = n then grow (lo - 1) hi
        else if at -. time (lo - 1) <= time hi -. at then grow (lo - 1) hi
        else grow lo (hi + 1)
      in
      let i = search 0 n in
      let lo, hi = grow i i in
      Stats.median (Array.map snd (Array.sub probes lo (hi - lo))) /. reference_s
    end

(* Median probe time of the run, in milliseconds. *)
let probe_ms t = 1e3 *. Stats.median (Array.of_list (List.map snd t.samples))
