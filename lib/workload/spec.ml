(** Workload specifications.

    A workload is an open-loop arrival process of update and query ETs
    over a keyspace with configurable skew.  The operation [profile]
    matches the restriction of the method under test — the paper's
    methods deliberately accept different operation classes, so
    cross-method experiments use profiles of equivalent shape (same
    rates, sizes, and key-popularity) built from the intents each method
    admits. *)

module Epsilon = Esr_core.Epsilon

type profile =
  | Additive  (** commutative increments: ORDUP, COMMU, COMPE, 2PC *)
  | Blind_set  (** timestamped overwrites: RITU, QUORUM, ORDUP, 2PC *)
  | Mixed_arith of float
      (** additive with the given fraction of multiplicative ETs — the
          §4.1 compensation mix for COMPE *)

let profile_to_string = function
  | Additive -> "additive"
  | Blind_set -> "blind-set"
  | Mixed_arith f -> Printf.sprintf "mixed-arith(%.0f%% mul)" (100. *. f)

type t = {
  duration : float;  (** virtual ms of arrivals *)
  update_rate : float;  (** update ETs per virtual ms, whole system *)
  query_rate : float;
  n_keys : int;
  zipf_theta : float;  (** 0.0 = uniform key popularity *)
  ops_per_update : int;
  keys_per_query : int;
  epsilon : Epsilon.spec;  (** inconsistency budget per query ET *)
  profile : profile;
}

let default =
  {
    duration = 2_000.0;
    update_rate = 0.05;
    query_rate = 0.05;
    n_keys = 32;
    zipf_theta = 0.6;
    ops_per_update = 2;
    keys_per_query = 2;
    epsilon = Epsilon.Unlimited;
    profile = Additive;
  }

(* Table 1's restriction row as a workload: RITU and QUORUM admit only
   timestamped blind writes, QUORUM one per ET, and every other method
   takes additive ETs.  Case-insensitive, like [Registry.find]. *)
let method_profile name =
  match String.uppercase_ascii name with
  | "RITU" | "QUORUM" -> Blind_set
  | _ -> Additive

let for_method name spec =
  {
    spec with
    profile = method_profile name;
    ops_per_update =
      (if String.uppercase_ascii name = "QUORUM" then 1 else spec.ops_per_update);
  }

(* One update intent of [profile] on [key]: a blind write of [set], or
   an increment by [add]. *)
let intent profile key ~set ~add =
  match profile with
  | Blind_set -> Esr_replica.Intf.Set (key, Esr_store.Value.Int set)
  | Additive | Mixed_arith _ -> Esr_replica.Intf.Add (key, add)

(* How a query answer is scored against the committed-prefix oracle: a
   blind write is simply current or stale, an increment is off by how
   much it missed. *)
let metric = function
  | Blind_set -> `Mismatch
  | Additive | Mixed_arith _ -> `Distance

let pp ppf s =
  Format.fprintf ppf
    "dur=%.0fms up=%.3f/ms q=%.3f/ms keys=%d theta=%.2f ops/u=%d keys/q=%d \
     eps=%a profile=%s"
    s.duration s.update_rate s.query_rate s.n_keys s.zipf_theta
    s.ops_per_update s.keys_per_query Epsilon.pp_spec s.epsilon
    (profile_to_string s.profile)
